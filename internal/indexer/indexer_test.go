package indexer

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"jdvs/internal/catalog"
	"jdvs/internal/cnn"
	"jdvs/internal/core"
	"jdvs/internal/featuredb"
	"jdvs/internal/imagestore"
	"jdvs/internal/imagestore/imagestoretest"
	"jdvs/internal/index"
	"jdvs/internal/kmeans"
	"jdvs/internal/mq"
	"jdvs/internal/msg"
)

const testDim = 16

type fixture struct {
	queue  *mq.Queue
	images *imagestore.Store
	res    *Resolver
	cat    *catalog.Catalog
}

func newFixture(t *testing.T, products, partitions int) *fixture {
	t.Helper()
	f := &fixture{
		queue:  mq.New(),
		images: imagestoretest.New(t),
	}
	t.Cleanup(f.queue.Close)
	if err := f.queue.CreateTopic(UpdatesTopic, partitions); err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Generate(catalog.Config{Products: products, Categories: 4, Seed: 11}, f.images)
	if err != nil {
		t.Fatal(err)
	}
	f.cat = cat
	db, err := featuredb.New()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	f.res = &Resolver{
		DB:        db,
		Images:    f.images,
		Extractor: cnn.New(cnn.Config{Dim: testDim, Seed: 5}),
	}
	return f
}

func (f *fixture) addEvent(p *catalog.Product, seq uint64) *msg.ProductUpdate {
	return &msg.ProductUpdate{
		Type:       msg.TypeAddProduct,
		ProductID:  p.ID,
		Category:   p.Category,
		Sales:      p.Sales,
		Praise:     p.Praise,
		PriceCents: p.PriceCents,
		ImageURLs:  append([]string(nil), p.ImageURLs...),
		Seq:        seq,
	}
}

func TestResolverChecksBeforeExtract(t *testing.T) {
	f := newFixture(t, 5, 2)
	p := &f.cat.Products[0]
	url := p.ImageURLs[0]

	feat, reused, err := f.res.Resolve(url, p.Attrs(url))
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if reused {
		t.Fatal("first resolve reported reuse")
	}
	if len(feat) != testDim {
		t.Fatalf("feature dim %d", len(feat))
	}
	calls := f.res.Extractor.Calls()

	// Second resolve: must reuse, no new extraction.
	_, reused, err = f.res.Resolve(url, p.Attrs(url))
	if err != nil || !reused {
		t.Fatalf("second resolve: reused=%v err=%v", reused, err)
	}
	if f.res.Extractor.Calls() != calls {
		t.Fatal("re-resolve re-extracted")
	}
}

func TestResolverMissingImage(t *testing.T) {
	f := newFixture(t, 2, 1)
	_, _, err := f.res.Resolve("jfs://missing.jpg", core.Attrs{})
	if err == nil {
		t.Fatal("missing image resolved")
	}
	if !errors.Is(err, imagestore.ErrNotFound) {
		t.Fatalf("err = %v, want imagestore.ErrNotFound in chain", err)
	}
}

func TestRouteUpdateSplitsPerImage(t *testing.T) {
	f := newFixture(t, 3, 4)
	p := &f.cat.Products[0]
	n, err := RouteUpdate(f.queue, f.addEvent(p, 1))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(p.ImageURLs) {
		t.Fatalf("routed %d messages, want %d", n, len(p.ImageURLs))
	}
	// Each message carries exactly one URL and sits on its hash partition.
	total := 0
	for part := 0; part < 4; part++ {
		c, err := f.queue.NewConsumer(UpdatesTopic, part, 0)
		if err != nil {
			t.Fatal(err)
		}
		msgs, err := c.Poll(100, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			u, err := msg.Decode(m.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if len(u.ImageURLs) != 1 {
				t.Fatalf("message carries %d urls", len(u.ImageURLs))
			}
			if want := int(mq.PartitionFor(u.ImageURLs[0], 4)); want != part {
				t.Fatalf("url %s on partition %d, want %d", u.ImageURLs[0], part, want)
			}
			total++
		}
	}
	if total != n {
		t.Fatalf("found %d routed messages, want %d", total, n)
	}
	// No URLs: error.
	if _, err := RouteUpdate(f.queue, &msg.ProductUpdate{Type: msg.TypeAddProduct}); err == nil {
		t.Fatal("urlless update routed")
	}
}

// TestRouteUpdateRejectsOversizedURL: a URL longer than the message codec's
// uint16 length field fails the whole update, and none of its images —
// not even the well-formed ones listed first — reaches the queue, where it
// would have decoded as a truncated URL.
func TestRouteUpdateRejectsOversizedURL(t *testing.T) {
	f := newFixture(t, 1, 4)
	u := f.addEvent(&f.cat.Products[0], 1)
	u.ImageURLs = append(u.ImageURLs, "jfs://img/"+strings.Repeat("u", 70_000))
	n, err := RouteUpdate(f.queue, u)
	if err == nil || !errors.Is(err, msg.ErrCodec) {
		t.Fatalf("routed %d messages, err %v; want a codec error", n, err)
	}
	for part := 0; part < 4; part++ {
		if l, err := f.queue.Len(UpdatesTopic, part); err != nil || l != 0 {
			t.Fatalf("partition %d holds %d messages (err %v), want none", part, l, err)
		}
	}
}

func newShard(t *testing.T, f *fixture) *index.Shard {
	t.Helper()
	s, err := index.New(index.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Train on features of the catalog's images.
	train := make([]float32, 0, 64*testDim)
	for i := range f.cat.Products {
		p := &f.cat.Products[i]
		feat, _, err := f.res.Resolve(p.ImageURLs[0], p.Attrs(p.ImageURLs[0]))
		if err != nil {
			t.Fatal(err)
		}
		train = append(train, feat...)
	}
	cb, err := kmeans.Train(kmeans.Config{K: 8, Dim: testDim, Seed: 1}, train)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetCodebook(cb); err != nil {
		t.Fatal(err)
	}
	return s
}

// imageOf returns the image ID the shard's URL table holds for url: the
// newest generation carrying that URL, since a feature refresh appends.
func imageOf(s *index.Shard, url string) (core.ImageID, bool) {
	for id := s.Stats().Images - 1; id >= 0; id-- {
		if a, ok := s.Attrs(core.ImageID(id)); ok && a.URL == url {
			return core.ImageID(id), true
		}
	}
	return 0, false
}

func TestApplyLifecycle(t *testing.T) {
	f := newFixture(t, 10, 1)
	s := newShard(t, f)
	p := &f.cat.Products[0]
	url := p.ImageURLs[0]

	one := func(typ msg.Type) *msg.ProductUpdate {
		u := f.addEvent(p, 1)
		u.Type = typ
		u.ImageURLs = []string{url}
		return u
	}

	// Addition.
	kind, reused, err := Apply(s, f.res, one(msg.TypeAddProduct))
	if err != nil || kind != "addition" {
		t.Fatalf("add: kind=%q err=%v", kind, err)
	}
	// Features were already in the DB from shard training resolve: reused.
	if !reused {
		t.Fatal("expected feature reuse from feature DB")
	}
	if !s.HasURL(url) {
		t.Fatal("image not indexed")
	}

	// Attr update.
	upd := one(msg.TypeUpdateAttrs)
	upd.Sales = 31337
	kind, _, err = Apply(s, f.res, upd)
	if err != nil || kind != "update" {
		t.Fatalf("update: kind=%q err=%v", kind, err)
	}
	id, _ := imageOf(s, url)
	a, _ := s.Attrs(id)
	if a.Sales != 31337 {
		t.Fatalf("sales = %d", a.Sales)
	}

	// Deletion.
	kind, _, err = Apply(s, f.res, one(msg.TypeRemoveProduct))
	if err != nil || kind != "deletion" {
		t.Fatalf("delete: kind=%q err=%v", kind, err)
	}
	if s.Valid(id) {
		t.Fatal("image valid after deletion")
	}

	// Re-addition: shard-level record reuse, no resolve needed.
	kind, reused, err = Apply(s, f.res, one(msg.TypeAddProduct))
	if err != nil || kind != "addition" || !reused {
		t.Fatalf("re-add: kind=%q reused=%v err=%v", kind, reused, err)
	}
	if !s.Valid(id) {
		t.Fatal("image invalid after re-add")
	}
}

func TestApplyToleratesUnknownTargets(t *testing.T) {
	f := newFixture(t, 3, 1)
	s := newShard(t, f)
	// Deleting / updating an image the shard never saw: tolerated no-ops.
	del := &msg.ProductUpdate{Type: msg.TypeRemoveProduct, ImageURLs: []string{"jfs://ghost.jpg"}}
	if _, _, err := Apply(s, f.res, del); err != nil {
		t.Fatalf("ghost delete errored: %v", err)
	}
	upd := &msg.ProductUpdate{Type: msg.TypeUpdateAttrs, ImageURLs: []string{"jfs://ghost.jpg"}}
	if _, _, err := Apply(s, f.res, upd); err != nil {
		t.Fatalf("ghost update errored: %v", err)
	}
}

func TestApplyValidation(t *testing.T) {
	f := newFixture(t, 3, 1)
	s := newShard(t, f)
	// Multi-URL messages must have been split by RouteUpdate.
	bad := f.addEvent(&f.cat.Products[0], 1)
	if len(bad.ImageURLs) < 2 {
		bad.ImageURLs = append(bad.ImageURLs, "jfs://extra.jpg")
	}
	if _, _, err := Apply(s, f.res, bad); err == nil {
		t.Fatal("multi-url addition applied")
	}
	if _, _, err := Apply(s, f.res, &msg.ProductUpdate{Type: 99, ImageURLs: []string{"u"}}); err == nil {
		t.Fatal("unknown type applied")
	}
}

func TestFullBuildFromLog(t *testing.T) {
	const partitions = 3
	f := newFixture(t, 30, partitions)
	var seq uint64
	// Feed: add everything, delete a few, update one, re-add one deleted.
	for i := range f.cat.Products {
		seq++
		if _, err := RouteUpdate(f.queue, f.addEvent(&f.cat.Products[i], seq)); err != nil {
			t.Fatal(err)
		}
	}
	removed := &f.cat.Products[2]
	stillGone := &f.cat.Products[4]
	for _, p := range []*catalog.Product{removed, stillGone} {
		seq++
		u := f.addEvent(p, seq)
		u.Type = msg.TypeRemoveProduct
		if _, err := RouteUpdate(f.queue, u); err != nil {
			t.Fatal(err)
		}
	}
	seq++
	upd := f.addEvent(&f.cat.Products[6], seq)
	upd.Type = msg.TypeUpdateAttrs
	upd.Sales = 424242
	if _, err := RouteUpdate(f.queue, upd); err != nil {
		t.Fatal(err)
	}
	seq++
	if _, err := RouteUpdate(f.queue, f.addEvent(removed, seq)); err != nil { // back on market
		t.Fatal(err)
	}

	fi, err := NewFull(FullConfig{
		Partitions: partitions,
		Dim:        testDim,
		NLists:     8,
		Seed:       1,
	}, f.res)
	if err != nil {
		t.Fatal(err)
	}
	shards, cb, err := fi.Build(f.queue)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(shards) != partitions || cb == nil {
		t.Fatalf("built %d shards", len(shards))
	}

	find := func(url string) (int, bool) {
		for p, s := range shards {
			if s.HasURL(url) {
				return p, true
			}
		}
		return 0, false
	}
	// Images live on their hash partition.
	for i := range f.cat.Products {
		p := &f.cat.Products[i]
		if p == stillGone {
			continue
		}
		for _, url := range p.ImageURLs {
			part, ok := find(url)
			if !ok {
				t.Fatalf("image %s missing from full index", url)
			}
			if want := int(mq.PartitionFor(url, partitions)); part != want {
				t.Fatalf("image %s on partition %d, want %d", url, part, want)
			}
		}
	}
	// The still-deleted product is excluded ("only the valid images are
	// used to create the full index").
	for _, url := range stillGone.ImageURLs {
		if _, ok := find(url); ok {
			t.Fatalf("deleted product's image %s present in full index", url)
		}
	}
	// The re-added product is present.
	if _, ok := find(removed.ImageURLs[0]); !ok {
		t.Fatal("re-added product missing from full index")
	}
	// The attribute update is folded in.
	updated := &f.cat.Products[6]
	part, _ := find(updated.ImageURLs[0])
	id, ok := imageOf(shards[part], updated.ImageURLs[0])
	if !ok {
		t.Fatal("updated product has no images on its partition")
	}
	a, _ := shards[part].Attrs(id)
	if a.Sales != 424242 {
		t.Fatalf("full index lost the attr update: sales=%d", a.Sales)
	}
}

func TestFullBuildEmptyLog(t *testing.T) {
	f := newFixture(t, 2, 2)
	fi, err := NewFull(FullConfig{
		Partitions: 2,
		Dim:        testDim,
		NLists:     4,
	}, f.res)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fi.Build(f.queue); err == nil {
		t.Fatal("empty log built an index")
	}
}

func TestNewFullValidation(t *testing.T) {
	f := newFixture(t, 2, 1)
	for _, parts := range []int{0, math.MaxUint16 + 2} {
		if _, err := NewFull(FullConfig{Partitions: parts, Dim: 4, NLists: 2}, f.res); err == nil {
			t.Fatalf("%d partitions accepted", parts)
		}
	}
	if _, err := NewFull(FullConfig{Partitions: math.MaxUint16 + 1, Dim: 4, NLists: 2}, f.res); err != nil {
		t.Fatalf("%d partitions: %v", math.MaxUint16+1, err)
	}
	if _, err := NewFull(FullConfig{Partitions: 1}, f.res); err == nil {
		t.Fatal("missing shape accepted")
	}
	for _, c := range []struct {
		name    string
		m, bits int
	}{
		{"negative M", -1, 0},
		{"M not dividing Dim", 7, 0},
		{"bits 5", 16, 5},
		{"odd M at 4 bits", 11, 4},
		{"bits without M", 0, 4},
	} {
		if _, err := NewFull(FullConfig{Partitions: 1, Dim: 64, NLists: 4, PQSubvectors: c.m, PQBits: c.bits}, f.res); err == nil {
			t.Fatalf("%s accepted", c.name)
		}
	}
	for _, bits := range []int{0, 8, 4} {
		if _, err := NewFull(FullConfig{Partitions: 1, Dim: 64, NLists: 4, PQSubvectors: 16, PQBits: bits}, f.res); err != nil {
			t.Fatalf("M 16 at bits %d: %v", bits, err)
		}
	}
}

// TestFullBuildCoveredOffsetsAndPQ: every built shard records the queue
// offset its replay covered, and a PQ-configured build installs one shared
// product quantizer with codes for every inserted image.
func TestFullBuildCoveredOffsetsAndPQ(t *testing.T) {
	const partitions = 2
	f := newFixture(t, 20, partitions)
	var seq uint64
	for i := range f.cat.Products {
		seq++
		if _, err := RouteUpdate(f.queue, f.addEvent(&f.cat.Products[i], seq)); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := NewFull(FullConfig{
		Partitions:   partitions,
		Dim:          testDim,
		NLists:       8,
		PQSubvectors: 4,
		PQBits:       4,
		Seed:         1,
	}, f.res)
	if err != nil {
		t.Fatal(err)
	}
	shards, _, err := fi.Build(f.queue)
	if err != nil {
		t.Fatal(err)
	}
	for p, s := range shards {
		want, err := f.queue.Len(UpdatesTopic, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.CoveredOffset(); got != want {
			t.Fatalf("partition %d covered offset %d, want queue length %d", p, got, want)
		}
		if !s.PQEnabled() {
			t.Fatalf("partition %d built without PQ despite PQSubvectors", p)
		}
		if st := s.Stats(); st.PQCodes != st.Images {
			t.Fatalf("partition %d: %d codes for %d images", p, st.PQCodes, st.Images)
		}
		// The configured bit width must survive the build: pq.Train defaults
		// to 8-bit when Bits is left unset, and SetPQCodebook installs
		// whatever width the codebook carries, so dropping PQBits here would
		// silently serve 8-bit codes from a 4-bit-configured cluster.
		if st := s.Stats(); st.PQBits != 4 {
			t.Fatalf("partition %d: built with %d-bit codes, want 4", p, st.PQBits)
		}
	}
	// Shards share one quantizer: identical centroids across partitions.
	a, b := shards[0].PQCodebook(), shards[1].PQCodebook()
	if a == nil || b == nil || len(a.Centroids) != len(b.Centroids) {
		t.Fatal("missing or mismatched pq codebooks")
	}
	for i := range a.Centroids {
		if a.Centroids[i] != b.Centroids[i] {
			t.Fatal("partitions trained divergent pq codebooks")
		}
	}
}

// requireListMajor fails unless image IDs ascend with inverted list: the
// list of image id (its feature's nearest centroid) never decreases as id
// grows, so every list's members are one consecutive run of IDs, rows and
// forward records.
func requireListMajor(t *testing.T, label string, s *index.Shard) {
	t.Helper()
	prev := 0
	lists := 0
	for id := 0; id < s.Stats().Images; id++ {
		l := s.Codebook().Assign(s.Feature(core.ImageID(id)))
		if l < prev {
			t.Fatalf("%s: image %d sits in list %d, after an image of list %d", label, id, l, prev)
		}
		if l > prev || id == 0 {
			lists++
		}
		prev = l
	}
	if lists < 2 {
		t.Fatalf("%s: images fall in %d list(s); the layout is untested", label, lists)
	}
}

// TestFullBuildListMajorAndDeterministic: a full build hands out image IDs
// list by list, a replica loaded from its snapshot keeps that layout, and
// the build stays a pure function of the log — two builds of one log write
// byte-identical snapshots, one built serially (GOMAXPROCS 1) and one with
// every stage fanned out over four workers.
func TestFullBuildListMajorAndDeterministic(t *testing.T) {
	const partitions = 2
	f := newFixture(t, 60, partitions)
	for i := range f.cat.Products {
		if _, err := RouteUpdate(f.queue, f.addEvent(&f.cat.Products[i], uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	build := func(procs int) [][]byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		fi, err := NewFull(FullConfig{
			Partitions:   partitions,
			Dim:          testDim,
			NLists:       8,
			PQSubvectors: 4,
			PQBits:       4,
			Seed:         1,
		}, f.res)
		if err != nil {
			t.Fatal(err)
		}
		shards, _, err := fi.Build(f.queue)
		if err != nil {
			t.Fatal(err)
		}
		snaps := make([][]byte, partitions)
		for p, s := range shards {
			requireListMajor(t, fmt.Sprintf("built partition %d", p), s)
			var buf bytes.Buffer
			if err := s.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			snaps[p] = buf.Bytes()
			replica, err := index.New(s.Config())
			if err != nil {
				t.Fatal(err)
			}
			if err := replica.LoadSnapshot(bytes.NewReader(snaps[p])); err != nil {
				t.Fatal(err)
			}
			requireListMajor(t, fmt.Sprintf("snapshot-loaded partition %d", p), replica)
		}
		return snaps
	}
	serial, fanned := build(1), build(4)
	for p := range serial {
		if !bytes.Equal(serial[p], fanned[p]) {
			t.Fatalf("partition %d: the builds at GOMAXPROCS 1 and 4 wrote different snapshots", p)
		}
	}
}

// TestApplyRelistChangedFeature: the wired real-time path must propagate
// a changed feature vector on re-listing. Apply resolves through the
// feature DB even for shard-known URLs (a cache hit — no extraction), so
// when the DB entry for a URL has changed since it was last indexed, the
// re-listing lands the image at its new index location instead of serving
// the stale vector until the next full rebuild.
func TestApplyRelistChangedFeature(t *testing.T) {
	f := newFixture(t, 10, 1)
	s := newShard(t, f)
	p := &f.cat.Products[0]
	url := p.ImageURLs[0]

	add := f.addEvent(p, 1)
	add.ImageURLs = []string{url}
	if _, _, err := Apply(s, f.res, add); err != nil {
		t.Fatal(err)
	}
	oldID, ok := imageOf(s, url)
	if !ok {
		t.Fatalf("%s not indexed", url)
	}

	// Delist, then change the URL's stored features (re-extraction after a
	// model refresh, or the image content changed under the same URL).
	del := f.addEvent(p, 2)
	del.Type = msg.TypeRemoveProduct
	del.ImageURLs = []string{url}
	if _, _, err := Apply(s, f.res, del); err != nil {
		t.Fatal(err)
	}
	stored, _, err := f.res.DB.GetOrCompute(url, func() ([]float32, error) {
		return nil, errors.New("not stored")
	})
	if err != nil {
		t.Fatal(err)
	}
	newFeat := append([]float32(nil), stored...)
	newFeat[0] += 2.5
	if err := f.res.DB.Put(url, newFeat); err != nil {
		t.Fatal(err)
	}

	// Re-listing through the production path: no extraction (DB hit), but
	// the image serves the new vector.
	hits, misses := f.res.DB.Stats()
	readd := f.addEvent(p, 3)
	readd.ImageURLs = []string{url}
	kind, reused, err := Apply(s, f.res, readd)
	if err != nil || kind != "addition" || !reused {
		t.Fatalf("re-add: kind=%q reused=%v err=%v", kind, reused, err)
	}
	if h2, m2 := f.res.DB.Stats(); m2 != misses || h2 != hits+1 {
		t.Fatalf("re-listing extracted features: hits %d->%d misses %d->%d", hits, h2, misses, m2)
	}
	newID, _ := imageOf(s, url)
	if newID == oldID {
		t.Fatal("changed-vector re-listing kept the stale generation")
	}
	if s.Valid(oldID) || !s.Valid(newID) {
		t.Fatalf("validity: old=%v new=%v", s.Valid(oldID), s.Valid(newID))
	}
	got := s.Feature(newID)
	for i := range newFeat {
		if got[i] != newFeat[i] {
			t.Fatalf("shard serves stale vector: got %v, want %v", got[:4], newFeat[:4])
		}
	}
	// The new location answers searches; the old vector's slot does not.
	resp, err := s.Search(&core.SearchRequest{Feature: newFeat, TopK: 1, NProbe: 8, Category: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Hits) == 0 || resp.Hits[0].URL != url || resp.Hits[0].Dist != 0 {
		t.Fatalf("new vector does not find the re-listed image: %+v", resp.Hits)
	}
	if st := s.Stats(); st.FeatureRefreshes != 1 {
		t.Fatalf("FeatureRefreshes = %d, want 1", st.FeatureRefreshes)
	}
}

// TestApplyRelistUnchangedFeatureReuses: the common re-listing (feature
// DB entry unchanged) must stay the cheap §2.3 path — record reused, no
// new generation appended.
func TestApplyRelistUnchangedFeatureReuses(t *testing.T) {
	f := newFixture(t, 10, 1)
	s := newShard(t, f)
	p := &f.cat.Products[0]
	url := p.ImageURLs[0]
	add := f.addEvent(p, 1)
	add.ImageURLs = []string{url}
	if _, _, err := Apply(s, f.res, add); err != nil {
		t.Fatal(err)
	}
	del := f.addEvent(p, 2)
	del.Type = msg.TypeRemoveProduct
	del.ImageURLs = []string{url}
	if _, _, err := Apply(s, f.res, del); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	readd := f.addEvent(p, 3)
	readd.ImageURLs = []string{url}
	if _, reused, err := Apply(s, f.res, readd); err != nil || !reused {
		t.Fatalf("re-add: reused=%v err=%v", reused, err)
	}
	after := s.Stats()
	if after.Images != before.Images || after.FeatureRefreshes != 0 || after.ReusedInserts != before.ReusedInserts+1 {
		t.Fatalf("plain re-listing not reused: %+v -> %+v", before, after)
	}
}
