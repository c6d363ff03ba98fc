package index

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"jdvs/internal/pq"
)

// The newest-element tests below carry the write half of the lock-free
// publish protocol: a writer fills an element, then publishes it with one
// atomic store (a length, or a copy-on-write directory pointer). A reader
// that polls the length and reads the newest element each time it moves
// reads exactly the element just published. A writer that publishes
// before it finishes writing lets that read see an unwritten element, and
// under -race the read has no happens-before edge to the write, so the
// race detector reports it even when the values happen to match. Each
// test also crosses at least 20 chunk-directory grows.

// chaseNewest publishes elements 0..n-1 from one goroutine while the
// calling goroutine reads the newest published element each time length
// moves. check reports what is wrong with published element i.
func chaseNewest(t *testing.T, n int, publish func(i int), length func() int, check func(i int) error) {
	t.Helper()
	start, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		<-start
		for i := 0; i < n; i++ {
			publish(i)
		}
	}()
	close(start)
	for seen, finished := length(), false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		l := length()
		if l == seen {
			continue
		}
		seen = l
		if err := check(l - 1); err != nil {
			t.Error(err)
			break
		}
	}
	<-done
	if l := length(); l != n {
		t.Errorf("published %d elements, want %d", l, n)
	}
}

func TestFeatMatNewestRow(t *testing.T) {
	const dim = 8
	m := newFeatMat(dim)
	fill := func(i int, row []float32) {
		for j := range row {
			row[j] = float32(i*dim + j + 1)
		}
	}
	buf, want := make([]float32, dim), make([]float32, dim)
	chaseNewest(t, 24*featRowsPerChunk,
		func(i int) {
			fill(i, buf)
			if _, err := m.Append(buf); err != nil {
				t.Error(err)
			}
		},
		m.Len,
		func(i int) error {
			fill(i, want)
			if got := slices.Clone(m.Row(uint32(i))); !slices.Equal(got, want) {
				return fmt.Errorf("newest row %d reads %v, want %v", i, got, want)
			}
			return nil
		})
	if g := len(*m.dir.Load()); g < 20 {
		t.Errorf("appends grew the directory %d times, want at least 20", g)
	}
}

func TestCodeBlocksNewestCode(t *testing.T) {
	for _, bits := range []int{8, 4} {
		t.Run(fmt.Sprintf("%dbit", bits), func(t *testing.T) {
			cb := newCodeBlocks(&pq.Codebook{M: 16, Bits: bits})
			fill := func(i int, code []byte) {
				for j := range code {
					code[j] = byte(1 + (i*len(code)+j)%255)
				}
			}
			buf, got, want := make([]byte, cb.mb), make([]byte, cb.mb), make([]byte, cb.mb)
			chaseNewest(t, 24*blocksPerChunk*pq.BlockCodes,
				func(i int) {
					fill(i, buf)
					cb.append(buf)
				},
				func() int { return int(cb.published()) },
				func(i int) error {
					cb.extract(uint32(i), got)
					fill(i, want)
					if !bytes.Equal(got, want) {
						return fmt.Errorf("newest code %d reads %v, want %v", i, got, want)
					}
					return nil
				})
			if g := len(*cb.dir.Load()); g < 20 {
				t.Errorf("appends grew the directory %d times, want at least 20", g)
			}
		})
	}
}

// TestCategoryDirectoryNewestCategory grows the copy-on-write category
// directory one category at a time; every ensureCat is a directory grow.
func TestCategoryDirectoryNewestCategory(t *testing.T) {
	var s Shard
	chaseNewest(t, 2048,
		func(i int) { s.ensureCat(uint16(i)) },
		func() int {
			if dir := s.cats.Load(); dir != nil {
				return len(*dir)
			}
			return 0
		},
		func(i int) error {
			if s.catBitmap(uint16(i)) == nil {
				return fmt.Errorf("newest category %d has a nil bitmap", i)
			}
			return nil
		})
}
