package msg

import (
	"strings"
	"testing"
	"testing/quick"
)

func sampleUpdate() *ProductUpdate {
	return &ProductUpdate{
		Type:           TypeAddProduct,
		ProductID:      987654321,
		Category:       12,
		Sales:          44444,
		Praise:         97,
		PriceCents:     129900,
		ImageURLs:      []string{"jfs://img/p1/0.jpg", "jfs://img/p1/1.jpg"},
		EventTimeNanos: 1533340800 * 1e9,
		Seq:            42,
	}
}

func equalUpdates(a, b *ProductUpdate) bool {
	if a.Type != b.Type || a.ProductID != b.ProductID || a.Category != b.Category ||
		a.Sales != b.Sales || a.Praise != b.Praise || a.PriceCents != b.PriceCents ||
		a.EventTimeNanos != b.EventTimeNanos || a.Seq != b.Seq ||
		len(a.ImageURLs) != len(b.ImageURLs) {
		return false
	}
	for i := range a.ImageURLs {
		if a.ImageURLs[i] != b.ImageURLs[i] {
			return false
		}
	}
	return true
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	for _, typ := range []Type{TypeAddProduct, TypeRemoveProduct, TypeUpdateAttrs} {
		u := sampleUpdate()
		u.Type = typ
		got, err := Decode(u.Encode())
		if err != nil {
			t.Fatalf("%v: decode: %v", typ, err)
		}
		if !equalUpdates(u, got) {
			t.Fatalf("%v roundtrip mismatch:\nin:  %+v\nout: %+v", typ, u, got)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	valid := sampleUpdate().Encode()
	tests := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short", valid[:10]},
		{"bad version", append([]byte{99}, valid[1:]...)},
		{"bad type", func() []byte {
			d := append([]byte(nil), valid...)
			d[1] = 0
			return d
		}()},
		{"truncated urls", valid[:len(valid)-3]},
		{"trailing byte", append(append([]byte(nil), valid...), 0)},
		{"url count the frame cannot back", func() []byte {
			d := append([]byte(nil), valid[:42]...)
			d[40], d[41] = 0xff, 0xff
			return d
		}()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.b); err == nil {
				t.Error("corrupt frame accepted")
			}
		})
	}
}

func TestNoURLs(t *testing.T) {
	u := sampleUpdate()
	u.ImageURLs = nil
	got, err := Decode(u.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.ImageURLs) != 0 {
		t.Fatalf("urls = %v, want none", got.ImageURLs)
	}
}

func TestLongURL(t *testing.T) {
	u := sampleUpdate()
	u.ImageURLs = []string{strings.Repeat("u", 60000)}
	got, err := Decode(u.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ImageURLs[0] != u.ImageURLs[0] {
		t.Fatal("long URL corrupted")
	}
}

// TestCheckBoundsLengthFields: Check accepts exactly what the uint16
// length and count fields can carry.
func TestCheckBoundsLengthFields(t *testing.T) {
	u := sampleUpdate()
	u.ImageURLs = []string{strings.Repeat("u", MaxURLBytes)}
	if err := u.Check(); err != nil {
		t.Fatalf("%d-byte url rejected: %v", MaxURLBytes, err)
	}
	u.ImageURLs[0] += "u"
	if err := u.Check(); err == nil {
		t.Fatalf("%d-byte url accepted", MaxURLBytes+1)
	}
	u.ImageURLs = make([]string, maxURLs+1)
	if err := u.Check(); err == nil {
		t.Fatalf("%d urls accepted", maxURLs+1)
	}
}

func TestTypeString(t *testing.T) {
	tests := []struct {
		t    Type
		want string
	}{
		{TypeAddProduct, "add-product"},
		{TypeRemoveProduct, "remove-product"},
		{TypeUpdateAttrs, "update-attrs"},
		{Type(0), "msg.Type(0)"},
	}
	for _, tt := range tests {
		if got := tt.t.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.t, got, tt.want)
		}
	}
}

// Property: encode∘decode is the identity for arbitrary field values.
func TestRoundtripProperty(t *testing.T) {
	f := func(pid uint64, cat uint16, sales, praise, price uint32, ts int64, seq uint64, urls []string, typSel uint8) bool {
		for i, u := range urls {
			if len(u) > 1000 {
				urls[i] = u[:1000]
			}
		}
		if len(urls) > 100 {
			urls = urls[:100]
		}
		u := &ProductUpdate{
			Type:           Type(typSel%3) + 1,
			ProductID:      pid,
			Category:       cat,
			Sales:          sales,
			Praise:         praise,
			PriceCents:     price,
			ImageURLs:      urls,
			EventTimeNanos: ts,
			Seq:            seq,
		}
		got, err := Decode(u.Encode())
		if err != nil {
			return false
		}
		return equalUpdates(u, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: decoding arbitrary bytes never panics (returns error or a
// valid event).
func TestDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
