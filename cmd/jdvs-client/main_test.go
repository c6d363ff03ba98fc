package main

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestFilterBounds(t *testing.T) {
	for _, tc := range []struct {
		minPrice, maxPrice float64
		minSales           uint64
		minCents, maxCents uint32
		sales              uint32
		err                string // substring of the error; "" for none
	}{
		{0, 0, 0, 0, 0, 0, ""},
		{0.29, 0.29, 7, 29, 29, 7, ""},
		{1.10, 19.99, 0, 110, 1999, 0, ""},
		{0.004, 0.005, 0, 0, 1, 0, ""}, // to the nearest cent
		{0, maxPriceYuan, math.MaxUint32, 0, math.MaxUint32, math.MaxUint32, ""},
		{-1, 0, 0, 0, 0, 0, "-min-price -1 out of range [0, 42949672.95]"},
		{0, 50_000_000, 0, 0, 0, 0, "-max-price 5e+07 out of range"},
		{math.NaN(), 0, 0, 0, 0, 0, "-min-price NaN out of range"},
		{0, math.Inf(1), 0, 0, 0, 0, "-max-price +Inf out of range"},
		{0, 0, math.MaxUint32 + 1, 0, 0, 0, "-min-sales 4294967296 out of range [0, 4294967295]"},
	} {
		minCents, maxCents, sales, err := filterBounds(tc.minPrice, tc.maxPrice, tc.minSales)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("filterBounds(%g, %g, %d) error %v, want %q", tc.minPrice, tc.maxPrice, tc.minSales, err, tc.err)
			}
			continue
		}
		if err != nil || minCents != tc.minCents || maxCents != tc.maxCents || sales != tc.sales {
			t.Errorf("filterBounds(%g, %g, %d) = %d, %d, %d, %v; want %d, %d, %d",
				tc.minPrice, tc.maxPrice, tc.minSales, minCents, maxCents, sales, err,
				tc.minCents, tc.maxCents, tc.sales)
		}
	}
}

// TestFilterBoundsKeepsEveryCent parses each price below ¥1,000 as the
// flag package would and checks it reaches the request unchanged.
func TestFilterBoundsKeepsEveryCent(t *testing.T) {
	for c := uint32(0); c < 100_000; c++ {
		yuan, err := strconv.ParseFloat(strconv.FormatFloat(float64(c)/100, 'f', 2, 64), 64)
		if err != nil {
			t.Fatal(err)
		}
		if _, got, _, err := filterBounds(0, yuan, 0); err != nil || got != c {
			t.Fatalf("-max-price %.2f sent %d cents (err %v), want %d", yuan, got, err, c)
		}
	}
}
