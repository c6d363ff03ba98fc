package indexer

import (
	"fmt"
	"math/rand"
	"testing"

	"jdvs/internal/index"
	"jdvs/internal/mq"
	"jdvs/internal/msg"
)

// TestFullBuildMatchesRealtimeState is the consistency contract between
// the two indexing paths (§2.2 vs §2.3): for any event sequence, the index
// built by replaying the log (full indexing) must agree with the index
// produced by applying the same events one by one (real-time indexing) on
// validity, attributes and membership.
func TestFullBuildMatchesRealtimeState(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			t.Parallel()
			runFoldTrial(t, int64(trial))
		})
	}
}

func runFoldTrial(t *testing.T, seed int64) {
	const partitions = 2
	f := newFixture(t, 25, partitions)
	rng := rand.New(rand.NewSource(seed*101 + 13))

	// Live shards: one per partition, fed event by event as the real-time
	// path would.
	liveShards := make([]*index.Shard, partitions)
	{
		// Shared codebook for determinism.
		ref := newShard(t, f)
		for p := range liveShards {
			s, err := index.New(index.Config{Dim: testDim, NLists: 8})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SetCodebook(ref.Codebook()); err != nil {
				t.Fatal(err)
			}
			liveShards[p] = s
		}
	}

	// Random event stream over the catalog.
	var seq uint64
	emit := func(u *msg.ProductUpdate) {
		seq++
		u.Seq = seq
		if _, err := RouteUpdate(f.queue, u); err != nil {
			t.Fatal(err)
		}
		// Apply per-image to the owning live shard, as searchers would.
		for _, url := range u.ImageURLs {
			per := *u
			per.ImageURLs = []string{url}
			p := int(mq.PartitionFor(url, partitions))
			if _, _, err := Apply(liveShards[p], f.res, &per); err != nil {
				t.Fatalf("live apply: %v", err)
			}
		}
	}

	listed := make(map[int]bool)
	for i := range f.cat.Products {
		emit(f.addEvent(&f.cat.Products[i], 0))
		listed[i] = true
	}
	for op := 0; op < 300; op++ {
		i := rng.Intn(len(f.cat.Products))
		p := &f.cat.Products[i]
		switch rng.Intn(3) {
		case 0: // toggle listing
			u := f.addEvent(p, 0)
			if listed[i] {
				u.Type = msg.TypeRemoveProduct
			}
			listed[i] = !listed[i]
			emit(u)
		case 1: // attr update
			u := f.addEvent(p, 0)
			u.Type = msg.TypeUpdateAttrs
			u.Sales = uint32(rng.Intn(100000))
			u.Praise = uint32(rng.Intn(101))
			u.PriceCents = uint32(rng.Intn(100000))
			emit(u)
		default: // re-add (possibly already listed)
			u := f.addEvent(p, 0)
			u.Sales = uint32(rng.Intn(100000))
			emit(u)
			listed[i] = true
		}
	}

	// Full build over the identical log.
	fi, err := NewFull(FullConfig{
		Partitions: partitions,
		Shard:      index.Config{Dim: testDim, NLists: 8},
		Seed:       1,
	}, f.res)
	if err != nil {
		t.Fatal(err)
	}
	builtShards, _, err := fi.Build(f.queue)
	if err != nil {
		t.Fatalf("full build: %v", err)
	}

	// Compare per image URL: validity in the full index == validity in the
	// live index; attributes match wherever both sides hold the image.
	for i := range f.cat.Products {
		p := &f.cat.Products[i]
		for _, url := range p.ImageURLs {
			part := int(mq.PartitionFor(url, partitions))
			live := liveShards[part]
			built := builtShards[part]

			liveValid := false
			if id, ok := imageOf(live, url); ok {
				liveValid = live.Valid(id)
				// Attribute agreement when the full index holds it.
				if bid, ok := imageOf(built, url); ok {
					a, _ := live.Attrs(id)
					if ba, _ := built.Attrs(bid); ba != a {
						t.Fatalf("url %s: built attrs %+v != live %+v", url, ba, a)
					}
				}
			}
			builtHas := built.HasURL(url)
			// Full indexing only materialises currently-valid images; the
			// live path keeps invalid records around (bitmap off).
			if liveValid != builtHas {
				t.Fatalf("url %s: live valid=%v, full index has=%v (listed=%v)",
					url, liveValid, builtHas, listed[i])
			}
		}
	}
}
