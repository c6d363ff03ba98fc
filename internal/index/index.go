// Package index implements the per-partition shard index a Searcher owns —
// the composition of every §2 structure into one searchable, real-time
// updatable unit:
//
//   - the forward index (product attributes, atomic field updates, Fig. 7);
//   - the IVF inverted index (lock-free appends/scans, expansion, Figs. 5,
//     8, 9) keyed by a k-means codebook;
//   - the validity bitmap (deletion and re-listing without structural
//     mutation);
//   - the in-shard feature matrix (distance computation on the scan path);
//   - the URL → image lookup table that keys every real-time update (§2.3:
//     one image per operation) and drives feature reuse.
//
// Concurrency contract, straight from the paper: one real-time indexing
// writer per shard (the searcher's queue consumer, Fig. 4) mutates the
// index while any number of search threads read, without locks on the read
// path ("there is no conflict between search and update processes for
// maximum concurrency").
package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"jdvs/internal/bitmapx"
	"jdvs/internal/core"
	"jdvs/internal/forward"
	"jdvs/internal/inverted"
	"jdvs/internal/kmeans"
	"jdvs/internal/parallel"
	"jdvs/internal/pq"
	"jdvs/internal/topk"
	"jdvs/internal/vecmath"
)

// Config holds a shard's serving settings. Its shape — the feature
// dimensionality and the number of IVF inverted lists — is not configured:
// it is the installed codebook's (SetCodebook, LoadSnapshot).
type Config struct {
	// DefaultNProbe is the number of lists probed when a query does not
	// specify one (default 8, clamped to the codebook's list count).
	DefaultNProbe int
	// SearchWorkers is the number of goroutines one Search call uses to
	// scan its probed inverted lists — the paper's §2.4 "multi-thread
	// searching" inside a searcher. 1 scans serially on the calling
	// goroutine; values above 1 stripe the probed lists across that many
	// workers, each with its own top-k selector, merged at the end. The
	// default (when <= 0) derives from GOMAXPROCS. Parallel scans keep the
	// lock-free reader contract: any number of scan workers may run while
	// the single real-time writer mutates the shard.
	SearchWorkers int
	// RerankK is the ADC over-fetch depth: the approximate scan selects
	// this many candidates, which are then re-ranked exactly against the
	// raw feature rows before the final top-k. <= 0 derives a bit-width
	// default per query — 20×TopK at 8-bit codes, 30×TopK at 4-bit — from
	// the measured sweep recorded in docs/OPERATIONS.md (recall@10 ≥ 0.99
	// on the 100k sweep corpus, guarded by TestPQRecallGuardrail).
	// Clamped to [TopK, MaxTopK].
	RerankK int
}

// MaxTopK caps a single query's result size. SearchRequest.TopK arrives
// from the wire as an unvalidated integer; without a bound a hostile
// request could size one top-k selector per scan worker at TopK entries
// each — and the scratch pool would pin those arrays after the query
// finished. 4096 is far above any real retrieval depth (the paper's
// searchers return tens of candidates per partition).
const MaxTopK = 4096

// maxDefaultSearchWorkers caps the GOMAXPROCS-derived default. Measured
// on BenchmarkSearchWorkers (50k images, nprobe 8/16/32): 8 workers never
// beat 4 at any probe width — at nprobe=8 each of 8 workers gets a single
// list, so per-query fan-out overhead eats the scan savings, and per-query
// allocations double (2720 B vs 1824 B). GitHub's ubuntu-latest CI runners
// expose 4 vCPUs, so a wider default was never exercisable there anyway.
// PR 1 guessed 8; the measurements say 4.
const maxDefaultSearchWorkers = 4

func defaultSearchWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > maxDefaultSearchWorkers {
		n = maxDefaultSearchWorkers
	}
	if n < 1 {
		n = 1
	}
	return n
}

func (c *Config) fill() {
	if c.DefaultNProbe <= 0 {
		c.DefaultNProbe = 8
	}
	if c.SearchWorkers <= 0 {
		c.SearchWorkers = defaultSearchWorkers()
	}
	if c.RerankK < 0 {
		c.RerankK = 0
	}
}

// Stats is a point-in-time summary of shard state.
type Stats struct {
	Images      int // total records ever appended
	ValidImages int // images whose validity bit is set
	Lists       int
	PQCodes     int // PQ-encoded rows (0 when the shard scans exact floats)
	// PQBits is the installed quantizer's centroid index width (8 or 4;
	// 0 when the shard scans exact floats), and PQCodeBytes the memory its
	// code storage holds (chunk-rounded) — the number 4-bit mode halves.
	PQBits        int
	PQCodeBytes   int64
	Inserts       int64
	ReusedInserts int64 // insertions satisfied by flipping validity back on
	// FeatureRefreshes counts re-listings whose feature vector differed
	// from the stored row: the image was re-indexed under a fresh row,
	// code and inverted entry, and the stale generation tombstoned.
	FeatureRefreshes int64
	Deletions        int64
	AttrUpdates      int64
	// FilteredSearches counts queries that took the bitmap-admission path
	// (category scope or attribute predicates set); ExactPlanSearches
	// counts the ones among them answered by scoring every admitted row
	// exactly instead of scanning inverted lists.
	FilteredSearches  int64
	ExactPlanSearches int64
	// FeatureHeapBytes is the memory held by raw feature-row storage:
	// Dim×4 per image, rounded up to whole chunks.
	FeatureHeapBytes int64
}

// Shard is one partition's index. Construct with New, then install a
// codebook (SetCodebook) or load a snapshot before inserting.
type Shard struct {
	cfg Config

	// codebook (immutable once installed) is the shard's shape: inv holds
	// its K lists, feats rows of its Dim floats. Until one is installed,
	// codebook and inv are nil and feats holds no rows.
	codebook *kmeans.Codebook
	fwd      *forward.Index
	inv      *inverted.Index
	valid    *bitmapx.Bitmap
	feats    *featMat

	// cats is the atomically published per-category bitmap directory,
	// indexed by category value: cats[c] holds a set bit for every image
	// whose forward record carries category c. Maintained by the single
	// real-time writer under the same lock-free publish protocol as valid
	// (membership bit set before the image's validity publishes it, and on
	// category moves the new bit is set before the old one clears), read
	// by any number of filtered scans. Validity is NOT encoded here — the
	// admission path intersects with valid — so deletion and re-listing
	// stay single-bit flips.
	cats atomic.Pointer[[]*bitmapx.Bitmap]

	// attrEpoch counts price/sales mutations; the predicate-bitmap cache
	// keys on it so a materialised price/sales bitmap is dropped once the
	// attributes under it move. Appends don't bump it: cached bitmaps
	// record the row count they covered and the scan falls back to
	// per-candidate checks beyond it.
	attrEpoch atomic.Uint64
	// predCache is the atomically published set of materialised
	// attribute-predicate bitmaps, built lazily by querying goroutines
	// (construction reads only lock-free structures) and replaced
	// wholesale when attrEpoch moves.
	predCache atomic.Pointer[predState]

	filteredSearches  atomic.Int64
	exactPlanSearches atomic.Int64

	// pqState is the atomically published (codebook, per-list codes) pair
	// of the ADC scan path. nil means no product quantizer is installed
	// and searches take the exact float path. Published only after every
	// existing feature row has been encoded, so readers always see codes
	// in lockstep with the inverted lists; thereafter the single real-time
	// writer appends to both.
	pqState atomic.Pointer[shardPQ]

	// coveredOffset is the message-queue offset this shard's contents
	// cover (the next offset a real-time consumer should read). Carried in
	// snapshots so a pushed full index tells the receiving searcher how
	// far it can skip.
	coveredOffset atomic.Int64

	// URL table for the real-time indexing writer. Guarded by tabMu:
	// written only by the single writer, read by HasURL, tests and the
	// writer itself.
	tabMu sync.RWMutex
	byURL map[string]core.ImageID

	// searchWorkers is the live intra-query scan parallelism, initialised
	// from cfg.SearchWorkers and adjustable at runtime (SetSearchWorkers)
	// while searches are in flight.
	searchWorkers atomic.Int32

	statsMu sync.Mutex
	stats   Stats
}

// New returns a shard with no codebook. It never fails; the error result
// stays for the benchmark's per-layer harness (bench/layers.go).
func New(cfg Config) (*Shard, error) {
	cfg.fill()
	s := &Shard{
		cfg:   cfg,
		fwd:   forward.New(),
		valid: bitmapx.New(0),
		feats: newFeatMat(0),
		byURL: make(map[string]core.ImageID),
	}
	s.searchWorkers.Store(int32(cfg.SearchWorkers))
	return s, nil
}

// Close does nothing and returns nil: a shard holds only heap memory, which
// the garbage collector reclaims. It is kept only because the benchmark's
// per-layer harness (bench/layers.go) calls it.
func (s *Shard) Close() error { return nil }

// ErrNotTrained is returned by operations requiring a codebook.
var ErrNotTrained = errors.New("index: codebook not trained")

// ErrUnknownURL is returned by the per-image update operations for a URL
// the shard has never indexed.
var ErrUnknownURL = errors.New("index: unknown image URL")

// checkShape refuses a shape no shard can have: no lists, no dimensions,
// or more dimensions than a query may carry (core.MaxFeatureDim).
func checkShape(k, dim int) error {
	if k <= 0 || dim <= 0 || dim > core.MaxFeatureDim {
		return fmt.Errorf("index: codebook K=%d Dim=%d (want K > 0 and Dim in 1..%d)", k, dim, core.MaxFeatureDim)
	}
	return nil
}

// SetCodebook installs a pre-trained IVF codebook, and with it the shard's
// shape (full indexing distributes one codebook to all shards so cluster
// IDs agree). A shard holding no rows gets fresh inverted lists and
// feature matrix of that shape; one holding rows or a product quantizer
// accepts only a codebook of its own shape. Writer-context only.
func (s *Shard) SetCodebook(cb *kmeans.Codebook) error {
	if err := checkShape(cb.K, cb.Dim); err != nil {
		return err
	}
	old := s.codebook
	if old != nil && (cb.K != old.K || cb.Dim != old.Dim) && (s.fwd.Len() > 0 || s.pqState.Load() != nil) {
		return fmt.Errorf("index: codebook K=%d Dim=%d, shard holding rows or a quantizer is K=%d Dim=%d", cb.K, cb.Dim, old.K, old.Dim)
	}
	if s.fwd.Len() == 0 {
		s.inv, s.feats = inverted.New(cb.K, 0), newFeatMat(cb.Dim)
	}
	s.codebook = cb
	return nil
}

// Codebook returns the installed codebook (nil if untrained).
func (s *Shard) Codebook() *kmeans.Codebook { return s.codebook }

// shardPQ is the published state of the ADC scan path: the product
// quantizer and the codes it produced, one block store per inverted list
// (the code of a list's i-th entry at slot i), always in lockstep with the
// inverted index and the feature matrix.
type shardPQ struct {
	cb    *pq.Codebook
	lists []*codeBlocks
}

// codeCount returns the number of committed codes.
func (ps *shardPQ) codeCount() int {
	n := 0
	for _, cb := range ps.lists {
		n += int(cb.published())
	}
	return n
}

// codeHeapBytes returns the memory code storage holds (chunk-rounded).
func (ps *shardPQ) codeHeapBytes() int64 {
	n := int64(0)
	for _, cb := range ps.lists {
		n += cb.heapBytes()
	}
	return n
}

// SetPQCodebook installs a pre-trained product quantizer (full indexing
// trains one and distributes it to all shards alongside the IVF codebook),
// encoding every stored row before the ADC path publishes. Each inverted
// list's block store is filled in list order, because a code's slot must
// match the position of the id the list yields (codeBlocks contract).
// Writer-context only: the list walk assumes no concurrent appends, and
// searches keep running on the exact path until the codes publish.
func (s *Shard) SetPQCodebook(cb *pq.Codebook) error {
	if s.codebook == nil {
		return ErrNotTrained
	}
	if err := cb.Valid(); err != nil {
		return err
	}
	if cb.Dim != s.codebook.Dim {
		return fmt.Errorf("index: pq codebook dim %d, shard dim %d", cb.Dim, s.codebook.Dim)
	}
	lists := make([]*codeBlocks, s.codebook.K)
	code := make([]byte, cb.CodeBytes())
	var encErr error
	for l := range lists {
		blocks := newCodeBlocks(cb)
		s.inv.Scan(l, func(id uint32) bool {
			row := s.feats.Row(id)
			if row == nil {
				encErr = fmt.Errorf("index: pq backfill: list %d id %d has no feature row", l, id)
				return false
			}
			if err := cb.Encode(row, code); err != nil {
				encErr = fmt.Errorf("index: pq encode row %d: %w", id, err)
				return false
			}
			blocks.append(code)
			return true
		})
		if encErr != nil {
			return encErr
		}
		lists[l] = blocks
	}
	s.pqState.Store(&shardPQ{cb: cb, lists: lists})
	return nil
}

// PQEnabled reports whether searches currently scan ADC codes.
func (s *Shard) PQEnabled() bool { return s.pqState.Load() != nil }

// PQCodebook returns the installed product quantizer (nil when the shard
// scans exact floats).
func (s *Shard) PQCodebook() *pq.Codebook {
	if ps := s.pqState.Load(); ps != nil {
		return ps.cb
	}
	return nil
}

// CoveredOffset returns the message-queue offset this shard's contents
// cover (0 when unknown).
func (s *Shard) CoveredOffset() int64 { return s.coveredOffset.Load() }

// SetCoveredOffset records the queue offset the shard's contents cover; it
// travels with snapshots so receivers can fast-forward their real-time
// consumers past replayed messages.
func (s *Shard) SetCoveredOffset(off int64) {
	if off < 0 {
		off = 0
	}
	s.coveredOffset.Store(off)
}

// Config returns the shard's configuration, reflecting any runtime
// SetSearchWorkers adjustment so derived shards (snapshot loads, clones)
// inherit the live setting.
func (s *Shard) Config() Config {
	cfg := s.cfg
	cfg.SearchWorkers = int(s.searchWorkers.Load())
	return cfg
}

// SearchWorkers returns the current intra-query scan parallelism.
func (s *Shard) SearchWorkers() int { return int(s.searchWorkers.Load()) }

// SetSearchWorkers adjusts the intra-query scan parallelism at runtime;
// n <= 0 restores the configured value. Safe to call concurrently with
// searches — in-flight queries finish at the old width.
func (s *Shard) SetSearchWorkers(n int) {
	if n <= 0 {
		n = s.cfg.SearchWorkers
	}
	s.searchWorkers.Store(int32(n))
}

// Insert adds an image with its feature vector and product attributes
// (Fig. 8). If the URL was indexed before — the product was "removed from
// the market and put back" (§2.3) — and the supplied feature is nil or
// matches the stored row, the record and features are reused: the
// validity bit flips on, attributes refresh, and no new forward/inverted
// entries are created. A re-listing that supplies a *different* vector is
// NOT a reuse: the image is re-indexed under a fresh row, PQ code and
// inverted-list entry (serving the old vector forever was the stale-
// feature hole this closes), and the stale generation is tombstoned. It
// returns the image's (possibly new) ID and whether an existing record
// was reused.
func (s *Shard) Insert(attrs core.Attrs, feature []float32) (core.ImageID, bool, error) {
	return s.insert(attrs, feature, unassigned, nil)
}

// unassigned is insert's list argument when the caller has not already
// placed the feature (found its inverted list and PQ code).
const unassigned = -1

// Row is one image handed to BulkLoad: its forward-index attributes and
// its feature vector.
type Row struct {
	Attrs   core.Attrs
	Feature []float32
}

// BulkLoad inserts rows list-major — the entry point of full indexing
// (§2.2), which rebuilds a shard from scratch and so gets to choose where
// every row lives. Each row is placed once — assigned to its inverted list
// and, when a quantizer is installed, encoded into one flat code buffer —
// across the cores; rows are then inserted list by list, in the caller's
// order inside a list, through the same serial path as Insert. On a fresh
// shard every inverted list's image IDs therefore form one consecutive
// run, so a list's raw feature rows, forward records and
// validity/admission bits sit next to each other, and the exact re-rank of
// a query's candidates — all members of its few probed lists — walks a few
// contiguous regions of the row store instead of all of it. Real-time
// Inserts afterwards append at the tail as always; the next full index
// restores the layout.
//
// rows is only read, through an index permutation (no copy of it is made).
// Search results do not depend on the order, except which of two
// equidistant images carries the smaller ID. Writer-context only, like
// Insert. On error the rows inserted so far stay in the shard.
func (s *Shard) BulkLoad(rows []Row) error {
	if s.codebook == nil {
		return ErrNotTrained
	}
	var pcb *pq.Codebook
	mb := 0
	if ps := s.pqState.Load(); ps != nil {
		pcb, mb = ps.cb, ps.cb.CodeBytes()
	}
	// Placement is per row and independent: workers write row i's list
	// and code at index i, and the first failing row in input order is
	// reported, as a serial pass would.
	assign := make([]int32, len(rows))
	codes := make([]byte, len(rows)*mb)
	errs := make([]error, len(rows))
	parallel.For(len(rows), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f := rows[i].Feature
			if len(f) != s.codebook.Dim {
				errs[i] = fmt.Errorf("feature dim %d, shard dim %d", len(f), s.codebook.Dim)
				continue
			}
			assign[i] = int32(s.codebook.Assign(f))
			if pcb != nil {
				errs[i] = pcb.Encode(f, codes[i*mb:(i+1)*mb])
			}
		}
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("index: bulk load %s: %w", rows[i].Attrs.URL, err)
		}
	}
	// Counting sort by list: stable, so equal-list rows keep the caller's
	// order and the load is a pure function of (codebook, rows).
	next := make([]int32, s.codebook.K+1)
	for _, l := range assign {
		next[l+1]++
	}
	for l := 1; l < len(next); l++ {
		next[l] += next[l-1]
	}
	order := make([]int32, len(rows))
	for i, l := range assign {
		order[next[l]] = int32(i)
		next[l]++
	}
	for _, i := range order {
		r := &rows[i]
		if _, _, err := s.insert(r.Attrs, r.Feature, int(assign[i]), codes[int(i)*mb:int(i+1)*mb]); err != nil {
			return fmt.Errorf("index: bulk load %s: %w", r.Attrs.URL, err)
		}
	}
	return nil
}

// maxStackCode is the PQ code width insert encodes into a stack buffer:
// 256 subquantizers at 8 bits, the default M = Dim/4 up to Dim 1024. A
// wider codebook still works; its codes are encoded on the heap.
const maxStackCode = 256

// place finds a new generation's inverted list and, when a quantizer is
// installed, its PQ code: what BulkLoad computes for all rows up front,
// for one feature. The code is encoded into buf, grown if it is too short.
func (s *Shard) place(feature []float32, buf []byte) (list int, code []byte, err error) {
	list = s.codebook.Assign(feature)
	if ps := s.pqState.Load(); ps != nil {
		mb := ps.cb.CodeBytes()
		code = slices.Grow(buf[:0], mb)[:mb]
		if err := ps.cb.Encode(feature, code); err != nil {
			return 0, nil, fmt.Errorf("index: pq encode: %w", err)
		}
	}
	return list, code, nil
}

// insert is Insert with the feature already placed when the caller has
// placed it (BulkLoad: its list and PQ code), or list unassigned to have
// it placed here, once a new generation is known to be needed.
func (s *Shard) insert(attrs core.Attrs, feature []float32, list int, code []byte) (core.ImageID, bool, error) {
	if s.codebook == nil {
		return 0, false, ErrNotTrained
	}
	if attrs.URL == "" {
		return 0, false, errors.New("index: insert needs an image URL")
	}
	if len(attrs.URL) > forward.MaxURLLen {
		// Reject before appendRow commits anything: the feature row is
		// appended before the forward record, so a URL the forward index
		// would refuse must never reach it — a half-committed generation
		// would leave the matrices permanently skewed.
		return 0, false, fmt.Errorf("index: %w (%d bytes)", forward.ErrURLTooLong, len(attrs.URL))
	}

	s.tabMu.RLock()
	id, exists := s.byURL[attrs.URL]
	s.tabMu.RUnlock()
	if exists && (feature == nil || rowsEqual(s.feats.Row(id), feature)) {
		// Reuse path: refresh numeric attributes — including the category,
		// or a product re-listed under a new category keeps serving its old
		// one to category-scoped searches — then revalidate. The validity
		// bit is the publish step (as in the fresh-insert path): flipping it
		// before the refresh would let a concurrent scoped search serve the
		// image under its stale attributes.
		s.fwd.SetSales(id, attrs.Sales)
		s.fwd.SetPraise(id, attrs.Praise)
		s.fwd.SetPrice(id, attrs.PriceCents)
		s.moveCategory(id, attrs.Category)
		s.attrEpoch.Add(1)
		// A re-listing may also attach the image to a different product:
		// hits must carry its current owner.
		s.fwd.SetProductID(id, attrs.ProductID)
		s.valid.Set(id)
		s.bump(func(st *Stats) { st.Inserts++; st.ReusedInserts++ })
		return id, true, nil
	}

	// A new generation: a fresh URL, or a re-listing whose vector changed
	// (a wrong-dim vector never matches the stored row, so it is refused
	// here, not reused).
	if len(feature) != s.codebook.Dim {
		return 0, false, fmt.Errorf("index: feature dim %d, shard dim %d", len(feature), s.codebook.Dim)
	}
	if list == unassigned {
		// The code only has to outlive appendRow, which copies it.
		var buf [maxStackCode]byte
		var err error
		if list, code, err = s.place(feature, buf[:]); err != nil {
			return 0, false, err
		}
	}
	if exists {
		return s.refreshFeature(id, attrs, feature, list, code)
	}
	id, err := s.appendRow(attrs, feature, list, code)
	if err != nil {
		return 0, false, err
	}
	s.valid.Set(id)

	s.tabMu.Lock()
	s.byURL[attrs.URL] = id
	s.tabMu.Unlock()

	s.bump(func(st *Stats) { st.Inserts++ })
	return id, false, nil
}

// appendRow commits a new image generation — feature row, forward record,
// PQ code (when a quantizer is installed) and inverted-list entry — and
// returns its ID. The caller publishes it by setting the validity bit.
// list and code are the feature's placement (BulkLoad or place); the
// appends only fail on invariant violations.
func (s *Shard) appendRow(attrs core.Attrs, feature []float32, list int, code []byte) (core.ImageID, error) {
	ps := s.pqState.Load()
	if ps != nil && len(code) != ps.cb.CodeBytes() {
		// Checked before anything is appended: a half-committed
		// generation would leave the matrices permanently skewed.
		return 0, fmt.Errorf("index: pq code of %d bytes, codebook writes %d", len(code), ps.cb.CodeBytes())
	}
	fid, err := s.feats.Append(feature)
	if err != nil {
		return 0, fmt.Errorf("index: feature append: %w", err)
	}
	id, err := s.fwd.Append(attrs)
	if err != nil {
		return 0, fmt.Errorf("index: forward append: %w", err)
	}
	if fid != id {
		return 0, fmt.Errorf("index: id skew: forward %d, features %d", id, fid)
	}
	// Category membership publishes before the validity bit does (the
	// caller's publish step), so a scoped scan that sees the image as
	// valid also finds it in its category's bitmap.
	s.ensureCat(attrs.Category).Set(id)
	if ps != nil {
		// Keep code storage in lockstep: the code must be committed before
		// the inverted entry and validity bit make the id scannable. Codes
		// are keyed by list position, so the append targets the id's
		// inverted list and must slot in exactly where inv.Append is about
		// to place the id.
		blocks := ps.lists[list]
		if slot, have := int(blocks.published()), s.inv.ListLen(list); slot != have {
			return 0, fmt.Errorf("index: list %d slot skew: codes %d, inverted %d", list, slot, have)
		}
		blocks.append(code)
	}
	if err := s.inv.Append(list, id); err != nil {
		return 0, fmt.Errorf("index: inverted append: %w", err)
	}
	return id, nil
}

// refreshFeature re-indexes a re-listed URL whose feature vector changed.
// Rows, codes and inverted entries are immutable under the lock-free
// reader contract, so the refresh appends a fresh generation — new row,
// new code, entry in the vector's *current* inverted list — and
// tombstones the stale ID instead of mutating it in place (which would
// tear under concurrent scans). The new generation is appended first
// (invisible until its validity bit publishes it), so a failed append
// leaves the old generation serving; then the stale ID's bit is cleared
// just before the new one is set. A search strictly between the two bit
// flips misses the image; one that straddles them (checked the stale bit
// before the clear, reached the new entry after the set) can transiently
// score both generations and return the URL twice — the same
// single-writer visibility window every non-atomic §2.3 update has, gone
// by the next query.
func (s *Shard) refreshFeature(stale core.ImageID, attrs core.Attrs, feature []float32, list int, code []byte) (core.ImageID, bool, error) {
	id, err := s.appendRow(attrs, feature, list, code)
	if err != nil {
		return 0, false, err
	}
	s.valid.Clear(stale)
	s.valid.Set(id)

	s.tabMu.Lock()
	s.byURL[attrs.URL] = id
	s.tabMu.Unlock()

	s.bump(func(st *Stats) { st.Inserts++; st.FeatureRefreshes++ })
	return id, false, nil
}

// rowsEqual compares a stored row against an incoming vector bitwise —
// NaNs compare equal to themselves, so a NaN-carrying vector cannot force
// a fresh generation on every re-listing.
func rowsEqual(row, feature []float32) bool {
	if len(row) != len(feature) {
		return false
	}
	for i := range row {
		if math.Float32bits(row[i]) != math.Float32bits(feature[i]) {
			return false
		}
	}
	return true
}

// catBitmap returns the live membership bitmap of category cat, or nil if
// the shard has never indexed an image under it.
func (s *Shard) catBitmap(cat uint16) *bitmapx.Bitmap {
	dir := s.cats.Load()
	if dir == nil || int(cat) >= len(*dir) {
		return nil
	}
	return (*dir)[cat]
}

// ensureCat returns category cat's bitmap, growing the directory
// copy-on-write when absent. Called only from the single real-time
// indexing writer (or quiesced loads), so the load-copy-store below never
// races with another writer; concurrent filtered scans see either the old
// or the new directory, both internally consistent.
func (s *Shard) ensureCat(cat uint16) *bitmapx.Bitmap {
	if b := s.catBitmap(cat); b != nil {
		return b
	}
	var old []*bitmapx.Bitmap
	if dir := s.cats.Load(); dir != nil {
		old = *dir
	}
	next := make([]*bitmapx.Bitmap, max(len(old), int(cat)+1))
	copy(next, old)
	b := bitmapx.New(0)
	next[cat] = b
	s.cats.Store(&next)
	return b
}

// moveCategory keeps the per-category bitmaps in lockstep with a forward
// category update. Publication order is the category-bitmap invariant: the
// new category's bit is set first, then the forward record, and the old
// bit clears last — a valid image is always a member of at least the
// bitmap matching its forward category, so a scoped scan intersecting
// (valid ∧ category) never drops an image mid-move. The transient overlap
// (member of both bitmaps) can admit the image into a scan scoped to its
// old category for one visibility window; the hit carries its forward
// (new) category, so the blender's post-merge re-check drops it.
func (s *Shard) moveCategory(id core.ImageID, newCat uint16) {
	_, _, _, old, ok := s.fwd.Numeric(id)
	s.ensureCat(newCat).Set(id)
	s.fwd.SetCategory(id, newCat)
	if ok && old != newCat {
		if b := s.catBitmap(old); b != nil {
			b.Clear(id)
		}
	}
}

// predKey identifies one attribute-predicate combination.
type predKey struct {
	minSales, minPrice, maxPrice uint32
}

// predEntry is one materialised predicate bitmap: a set bit for every
// forward record — valid or not; validity is intersected separately —
// whose sales/price pass the key's predicates, covering rows
// [0, builtLen). Ids at or beyond builtLen take the per-candidate slow
// path instead.
type predEntry struct {
	words    bitmapx.Words
	builtLen uint32
}

// predState is the predicate-bitmap cache published for one attrEpoch
// value; an epoch mismatch discards it wholesale.
type predState struct {
	epoch   uint64
	entries map[predKey]*predEntry
}

// maxPredEntries bounds the cache; predicate combinations beyond it evict
// arbitrarily on the next publish.
const maxPredEntries = 8

// predWords returns the materialised bitmap for the request's attribute
// predicates, building and caching it when absent. Any querying goroutine
// may build — construction reads only lock-free structures — and when two
// race, the last publish wins and the loser's work is one wasted O(rows)
// pass. A price/sales update concurrent with a build can leave one stale
// bit in the entry for the rest of the epoch; that is the same visibility
// window as any §2.3 non-atomic update, and the blender's post-merge
// re-check drops such a hit.
func (s *Shard) predWords(req *core.SearchRequest) *predEntry {
	key := predKey{minSales: req.MinSales, minPrice: req.MinPriceCents, maxPrice: req.MaxPriceCents}
	epoch := s.attrEpoch.Load()
	cur := s.predCache.Load()
	if cur != nil && cur.epoch == epoch {
		if e, ok := cur.entries[key]; ok {
			return e
		}
	}
	n := uint32(s.fwd.Len())
	e := &predEntry{builtLen: n, words: make(bitmapx.Words, (n+63)/64)}
	for id := uint32(0); id < n; id++ {
		sales, _, price, _, ok := s.fwd.Numeric(id)
		if ok && req.MatchesAttrs(sales, price) {
			e.words[id/64] |= 1 << (id % 64)
		}
	}
	next := &predState{epoch: epoch, entries: map[predKey]*predEntry{key: e}}
	if cur != nil && cur.epoch == epoch {
		for k, v := range cur.entries {
			if len(next.entries) >= maxPredEntries {
				break
			}
			next.entries[k] = v
		}
	}
	s.predCache.Store(next)
	return e
}

// admission is the per-query candidate filter shared by the exact and ADC
// scan paths. Unfiltered queries keep the zero-copy live path: one atomic
// read against the validity bitmap per candidate. Filtered queries
// pre-intersect validity ∧ category ∧ attribute predicates into one flat
// bitmap, so the scan admits a candidate with a single word test instead
// of a forward lookup each, and the set-bit count prices the filter's
// selectivity before any list is probed. The bitmap is a snapshot: rows
// published or delisted mid-query are invisible to it — the usual
// single-writer visibility window. Ids at or beyond tail (rows appended
// after the snapshot, or past a cached predicate bitmap's build length)
// fall back to the pre-pushdown per-candidate check.
type admission struct {
	s          *Shard
	req        *core.SearchRequest
	live       *bitmapx.Bitmap // unfiltered: consult the live validity bitmap
	words      bitmapx.Words   // filtered: pre-intersected admission words, no bit at or past tail
	tail       uint32          // ids ≥ tail take the slow per-candidate path
	matches    int             // set bits in words (selectivity estimate)
	exhaustive bool            // words covered every committed row at build time
}

// admit reports whether candidate id passes the query's filter.
func (a *admission) admit(id uint32) bool {
	if a.live != nil {
		return a.live.Get(id)
	}
	if id >= a.tail {
		return a.s.admitSlow(id, a.req)
	}
	return a.words.Get(id)
}

// admitSlow is the per-candidate fallback for ids beyond the admission
// bitmap's coverage: one validity read plus one forward lookup, exactly
// the pre-pushdown check.
func (s *Shard) admitSlow(id uint32, req *core.SearchRequest) bool {
	if !s.valid.Get(id) {
		return false
	}
	sales, _, price, cat, ok := s.fwd.Numeric(id)
	if !ok {
		return false
	}
	if req.Category >= 0 && int32(cat) != req.Category {
		return false
	}
	return req.MatchesAttrs(sales, price)
}

// buildAdmission assembles the query's candidate filter into the pooled
// scratch buffers. The empty-and-exhaustive result (no committed row can
// pass, e.g. a never-seen category) lets Search return an empty page
// without probing anything.
func (s *Shard) buildAdmission(req *core.SearchRequest, sc *searchScratch) admission {
	if req.Category < 0 && !req.HasPredicates() {
		return admission{live: s.valid}
	}
	a := admission{s: s, req: req}
	if req.Category > math.MaxUint16 {
		// Forward records store the category as uint16; nothing can match.
		a.exhaustive = true
		return a
	}
	sc.adm = s.valid.AppendWords(sc.adm[:0])
	tail := uint32(len(sc.adm)) * 64
	if req.Category >= 0 {
		cb := s.catBitmap(uint16(req.Category))
		if cb == nil {
			// No committed row has ever carried the category.
			a.exhaustive = true
			return a
		}
		sc.admCat = cb.AppendWords(sc.admCat[:0])
		// The category bitmap may trail the validity bitmap in growth;
		// absent words mean "not a member", so pad with zeros rather than
		// letting And truncate the coverage.
		for len(sc.admCat) < len(sc.adm) {
			sc.admCat = append(sc.admCat, 0)
		}
		sc.adm = bitmapx.And(sc.adm, sc.adm, sc.admCat)
	}
	if req.HasPredicates() {
		e := s.predWords(req)
		sc.adm = bitmapx.And(sc.adm, sc.adm, e.words)
		if t := uint32(len(sc.adm)) * 64; t < tail {
			tail = t
		}
		if e.builtLen < tail {
			tail = e.builtLen
		}
	}
	a.words = sc.adm
	a.tail = tail
	a.matches = a.words.Count()
	a.exhaustive = tail >= uint32(s.fwd.Len())
	return a
}

// HasURL reports whether the shard has ever indexed url (valid or not).
// Only tests call it: the indexer and cluster tests look an image up by
// URL, and Attrs takes an image ID.
func (s *Shard) HasURL(url string) bool {
	s.tabMu.RLock()
	defer s.tabMu.RUnlock()
	_, ok := s.byURL[url]
	return ok
}

// RemoveImageURL flips the validity bit of one image addressed by URL
// (§2.3 "Deletion: ... as simple as changing the corresponding validity
// flag in the bitmap from 1 (valid) to 0 (invalid)"); update events are
// routed by hash(URL) to the owning partition. It reports whether the bit
// changed.
func (s *Shard) RemoveImageURL(url string) (bool, error) {
	s.tabMu.RLock()
	id, ok := s.byURL[url]
	s.tabMu.RUnlock()
	if !ok {
		return false, fmt.Errorf("%w: url %q", ErrUnknownURL, url)
	}
	changed := s.valid.Clear(id)
	if changed {
		s.bump(func(st *Stats) { st.Deletions++ })
	}
	return changed, nil
}

// UpdateAttrsURL atomically updates the numeric attributes — sales,
// praise, price and category — of one image addressed by URL (Fig. 7).
func (s *Shard) UpdateAttrsURL(url string, sales, praise, price uint32, category uint16) error {
	s.tabMu.RLock()
	id, ok := s.byURL[url]
	s.tabMu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: url %q", ErrUnknownURL, url)
	}
	s.fwd.SetSales(id, sales)
	s.fwd.SetPraise(id, praise)
	s.fwd.SetPrice(id, price)
	s.moveCategory(id, category)
	s.attrEpoch.Add(1)
	s.bump(func(st *Stats) { st.AttrUpdates++ })
	return nil
}

// Valid reports whether image id is currently searchable.
func (s *Shard) Valid(id core.ImageID) bool { return s.valid.Get(id) }

// Attrs returns the forward-index record of image id.
func (s *Shard) Attrs(id core.ImageID) (core.Attrs, bool) { return s.fwd.Get(id) }

// Feature returns image id's feature row (nil if unknown). Callers must
// not modify it.
func (s *Shard) Feature(id core.ImageID) []float32 { return s.feats.Row(id) }

// searchScratch is the pooled per-query scratch: probe-selection buffers,
// the ADC lookup table, one top-k selector per scan worker, and the
// re-rank's final selector. Pooling keeps the hot path free of per-query
// allocations across serial and parallel scans.
type searchScratch struct {
	probe     []int
	probeDist []float32
	lut       []float32 // ADC lookup table (quantized shards only)
	sels      []*topk.Selector
	final     *topk.Selector // rerankExact's top-k, apart from sels: it reads their items
	counts    []int
	ids       [][]uint32  // per-worker id copies of lists mid-expansion (inverted.View)
	missing   []topk.Item // re-rank candidates whose raw row was unavailable
	adm       bitmapx.Words
	admCat    bitmapx.Words
}

var searchScratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// ensureIDBufs guarantees n per-worker id buffers exist. Must run before
// scan workers fan out: workers index sc.ids[w] concurrently, so the
// slice header may not grow under them.
func (sc *searchScratch) ensureIDBufs(n int) {
	for len(sc.ids) < n {
		sc.ids = append(sc.ids, nil)
	}
}

// selectors returns n selectors reconfigured for capacity k.
func (sc *searchScratch) selectors(n, k int) []*topk.Selector {
	for len(sc.sels) < n {
		sc.sels = append(sc.sels, topk.New(k))
	}
	sels := sc.sels[:n]
	for _, sel := range sels {
		sel.ResetK(k)
	}
	return sels
}

// workerCounts returns n zeroed per-worker scanned counters.
func (sc *searchScratch) workerCounts(n int) []int {
	if cap(sc.counts) < n {
		sc.counts = make([]int, n)
	}
	sc.counts = sc.counts[:n]
	for i := range sc.counts {
		sc.counts[i] = 0
	}
	return sc.counts
}

// query is one search in flight: the state prepare derives from a request
// and the list traversals score against, read-only once prepared, so the
// scan workers of one Search share it.
type query struct {
	req     *core.SearchRequest
	k       int            // clamped TopK
	rerankK int            // ADC over-fetch depth (quantized shards only)
	sc      *searchScratch // probe set in sc.probe, lookup table in sc.lut
	adm     admission
}

// prepare validates req and derives everything a scan needs from it into q,
// whose scratch the caller supplies: the clamped k, the admission filter,
// the probe set in q.sc.probe and, on a quantized shard (ps != nil), the
// ADC lookup table and over-fetch depth. A non-nil response answers the
// query without a list scan: no committed row can pass its filter (e.g. a
// never-seen category), or the filter admits no more rows than the probe
// would score (exactPlanLimit) and scoreAdmitted scored them all.
func (s *Shard) prepare(q *query, req *core.SearchRequest, ps *shardPQ) (*core.SearchResponse, error) {
	if s.codebook == nil {
		return nil, ErrNotTrained
	}
	if len(req.Feature) != s.codebook.Dim {
		return nil, fmt.Errorf("index: query dim %d, shard dim %d", len(req.Feature), s.codebook.Dim)
	}
	k := req.TopK
	if k <= 0 {
		k = 10
	}
	if k > MaxTopK {
		k = MaxTopK
	}
	nprobe := req.NProbe
	if nprobe <= 0 {
		nprobe = min(s.cfg.DefaultNProbe, s.codebook.K)
	}
	sc := q.sc

	// Build the candidate-admission filter before probe selection: its
	// set-bit count prices the filter's selectivity, which picks the plan.
	q.adm = s.buildAdmission(req, sc)
	q.req, q.k = req, k
	if q.adm.live == nil {
		s.filteredSearches.Add(1)
		if q.adm.matches == 0 && q.adm.exhaustive {
			return &core.SearchResponse{}, nil
		}
		if s.admittedBound(&q.adm) <= s.exactPlanLimit(nprobe, k) {
			s.exactPlanSearches.Add(1)
			items, scanned := s.scoreAdmitted(q)
			return s.assembleResponse(items, scanned, 0), nil
		}
	}

	sc.probe, sc.probeDist = vecmath.TopCentroidsInto(
		sc.probe, sc.probeDist, req.Feature, s.codebook.Centroids, s.codebook.Dim, nprobe)
	if ps != nil {
		// The query's dimension was validated against the codebook above,
		// and the quantizer against the codebook at install time, so
		// BuildLUT cannot fail here.
		sc.lut, _ = ps.cb.BuildLUT(req.Feature, sc.lut)
		q.rerankK = s.rerankDepth(k, ps.cb.Bits)
	}
	return nil, nil
}

// Search scans the nprobe nearest inverted lists and returns the k nearest
// valid images with their attributes (§2.4); TopK is clamped to MaxTopK.
// Lock-free with respect to the real-time indexing writer. When the
// shard's SearchWorkers is above 1 the probed lists are striped across
// that many goroutines, each selecting a private top-k over its share,
// merged at the end; results are identical to the serial scan.
//
// When a product quantizer is installed (SetPQCodebook or a
// PQ-bearing snapshot) the scan scores ADC codes instead of float rows —
// a per-query lookup table turns each candidate into M byte-indexed table
// adds (scanADC), the scan over-fetches RerankK candidates, and that short
// list is re-ranked exactly against the raw feature rows before the final
// top-k. Shards without a quantizer take
// the exact float path. A filtered query that admits no more rows than the
// probe would score skips the lists and scores those rows exactly
// (scoreAdmitted), reporting Probed 0.
func (s *Shard) Search(req *core.SearchRequest) (*core.SearchResponse, error) {
	sc := searchScratchPool.Get().(*searchScratch)
	defer searchScratchPool.Put(sc)
	ps := s.pqState.Load()
	q := query{sc: sc}
	if resp, err := s.prepare(&q, req, ps); resp != nil || err != nil {
		return resp, err
	}
	lists := sc.probe

	workers := int(s.searchWorkers.Load())
	if workers > len(lists) {
		workers = len(lists)
	}
	if workers < 1 {
		workers = 1
	}

	var sel *topk.Selector
	var items []topk.Item
	scanned := 0
	if ps != nil {
		sc.ensureIDBufs(workers)
		sel, scanned = s.scanStriped(workers, q.rerankK, sc, func(start, stride int, sel *topk.Selector) int {
			// scanStriped hands worker w the stripe starting at w (0 on
			// the serial path), which also names its id buffer.
			return s.scanADC(ps, &q, sel, start, stride, &sc.ids[start])
		})
		items = s.rerankExact(req, q.k, sel.Items(), sc, &q.adm)
	} else {
		sel, scanned = s.scanStriped(workers, q.k, sc, func(start, stride int, sel *topk.Selector) int {
			return s.scanLists(req, lists, start, stride, sel, &q.adm)
		})
		items = sel.Sorted()
	}

	return s.assembleResponse(items, scanned, len(lists)), nil
}

// SearchBatch answers reqs[i] with Search into position i of the returned
// slices. It is kept only because the benchmark's per-layer harness
// (bench/layers.go) calls it.
func (s *Shard) SearchBatch(reqs []*core.SearchRequest) ([]*core.SearchResponse, []error) {
	resps := make([]*core.SearchResponse, len(reqs))
	errs := make([]error, len(reqs))
	for i, req := range reqs {
		resps[i], errs[i] = s.Search(req)
	}
	return resps, errs
}

// assembleResponse joins the final ranked items with their forward-index
// attributes — the shared last step of both plans and of the exact and ADC
// scans.
func (s *Shard) assembleResponse(items []topk.Item, scanned, probed int) *core.SearchResponse {
	resp := &core.SearchResponse{
		Hits:    make([]core.Hit, 0, len(items)),
		Scanned: scanned,
		Probed:  probed,
	}
	for _, it := range items {
		id := uint32(it.ID)
		a, ok := s.fwd.Get(id)
		if !ok {
			continue
		}
		resp.Hits = append(resp.Hits, core.Hit{
			Image:      core.ImageRef{Local: id},
			Dist:       it.Dist,
			ProductID:  a.ProductID,
			Sales:      a.Sales,
			Praise:     a.Praise,
			PriceCents: a.PriceCents,
			Category:   a.Category,
			URL:        a.URL,
		})
	}
	return resp
}

// scanLists scans every probed list whose index ≡ start (mod stride),
// pushing admitted candidates into sel, and returns how many it scanned.
// Striding interleaves the (distance-ordered, unevenly sized) lists across
// workers for balanced shares. Validity, category scope and attribute
// predicates are all decided by the admission filter — a single word test
// on the pre-intersected bitmap for filtered queries, a validity-bit read
// otherwise.
func (s *Shard) scanLists(req *core.SearchRequest, lists []int, start, stride int, sel *topk.Selector, adm *admission) int {
	scanned := 0
	scan := func(id uint32) bool {
		if !adm.admit(id) {
			return true // off-market or filtered out (§2.2 validity, scope, predicates)
		}
		row := s.feats.Row(id)
		if row == nil {
			return true
		}
		scanned++
		sel.Push(uint64(id), vecmath.L2Squared(req.Feature, row))
		return true
	}
	for i := start; i < len(lists); i += stride {
		s.inv.Scan(lists[i], scan)
	}
	return scanned
}

// Per-bit-width default ADC over-fetch multipliers (RerankK = mul×TopK
// when the knob is unset), from the measured sweep on the 100k image /
// dim 64 / nprobe 8 corpus of ~195-image near-duplicate motifs recorded
// in docs/OPERATIONS.md (re-run: JDVS_RERANK_SWEEP=1 go test
// ./internal/index/ -run TestRerankSweep -v). The sweep's finding: at
// production corpus-to-codebook ratios the depth that matters is the one
// that covers the query's near-duplicate group — both widths climb the
// same curve and pass recall@10 0.99 at mul=20 (8-bit 0.9915, 4-bit
// 0.9930), saturating at 1.0 by mul=30. 8-bit defaults to that knee; the
// 16-centroid 4-bit quantizer gets the full-saturation depth as margin
// for corpora fine-grained enough for codebook resolution to matter —
// which its cheaper scan pays for (445µs/query vs the 8-bit default's
// 584µs on the sweep corpus).
const (
	defaultRerankMul8 = 20
	defaultRerankMul4 = 30
)

// rerankDepth derives the ADC over-fetch depth for one query under the
// installed quantizer's bit width.
func (s *Shard) rerankDepth(k, bits int) int {
	mul := defaultRerankMul8
	if bits == 4 {
		mul = defaultRerankMul4
	}
	r := mul * k
	if s.cfg.RerankK > 0 {
		r = s.cfg.RerankK
	}
	if r < k {
		r = k
	}
	if r > MaxTopK {
		r = MaxTopK
	}
	return r
}

// scanStriped runs scan(start, stride, sel) striped across the workers —
// the §2.4 multi-thread fan-out shared by the exact and ADC paths — and
// returns the selector holding the best k candidates over all of them,
// unsorted, with the total candidates scored. Worker selectors fold into
// the first by Push: selection is a pure function of the candidate
// multiset, so the survivors are the serial scan's. scan must be safe for
// concurrent calls with distinct (start, sel) pairs.
func (s *Shard) scanStriped(workers, k int, sc *searchScratch, scan func(start, stride int, sel *topk.Selector) int) (*topk.Selector, int) {
	if workers == 1 {
		sel := sc.selectors(1, k)[0]
		return sel, scan(0, 1, sel)
	}
	sels := sc.selectors(workers, k)
	counts := sc.workerCounts(workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			counts[w] = scan(w, workers, sels[w])
		}(w)
	}
	// Worker 0 runs on the calling goroutine.
	counts[0] = scan(0, workers, sels[0])
	wg.Wait()
	scanned := counts[0]
	for w := 1; w < workers; w++ {
		scanned += counts[w]
		for _, it := range sels[w].Items() {
			sels[0].Push(it.ID, it.Dist)
		}
	}
	return sels[0], scanned
}

// rerankExact scores the ADC-selected candidates exactly against the raw
// feature rows and returns the final top k — the last stage of the ADC
// path, serial or striped. cands may come in any order (it is
// the over-fetch selector's heap, read in place): every candidate is
// scored, and the final selector orders by (dist, id) whatever the push
// order, so sorting them by the ADC distance the re-rank replaces would
// buy nothing.
func (s *Shard) rerankExact(req *core.SearchRequest, k int, cands []topk.Item, sc *searchScratch, adm *admission) []topk.Item {
	if sc.final == nil {
		sc.final = topk.New(k)
	}
	sel := sc.final
	sel.ResetK(k)
	ranked := 0
	missing := sc.missing[:0]
	for _, it := range cands {
		row := s.feats.Row(uint32(it.ID))
		if row == nil {
			// The raw row is unavailable (it was scannable by code, so
			// this is a store-level gap, not an invalid image). Dropping
			// it silently could return fewer than k results even though
			// the shard holds ≥ k valid images; remember it for backfill.
			missing = append(missing, it)
			continue
		}
		ranked++
		sel.Push(it.ID, vecmath.L2Squared(req.Feature, row))
	}
	if ranked < k && len(missing) > 0 {
		// Backfill from the best approximate candidates: the ADC estimate
		// is the best score available for a row the store cannot produce,
		// so this rare path is the one reader of ADC order and sorts for
		// itself. Only the shortfall is filled, so an approximate score
		// never displaces an exact one when k exact candidates exist.
		topk.Sort(missing)
		for _, it := range missing {
			if ranked == k {
				break
			}
			// Re-check admission before backfilling: the scan admitted this
			// candidate, but it may have been delisted or drifted out of the
			// filter between the scan and the re-rank, and unlike the exact
			// branch this one reads nothing else that would catch it.
			if !adm.admit(uint32(it.ID)) {
				continue
			}
			ranked++
			sel.Push(it.ID, it.Dist)
		}
	}
	sc.missing = missing[:0]
	return sel.Sorted()
}

// scanADC is the ADC list traversal of one query: for every probed list in
// q.sc.probe[start::stride] it views the list's published ids (insertion
// order, which by the codeBlocks contract is slot order), streams the
// list's code blocks through the block scorer, pushes the admitted
// candidates into sel, and returns how many codes it scanned. buf is the
// caller's buffer for the id copy a list mid-expansion needs
// (inverted.View).
//
// Distances come first and admission second: a block scorer prices 32
// candidates in one sweep for less than the cost of 32 admission reads,
// and the selector's current-worst threshold then discards most of them
// before any admission word is touched. The same threshold, taken at block
// start, bounds the scorer, which stops summing a code as soon as it is
// sure to exceed it. The scanned count is therefore "codes scored or
// abandoned" — every published code in the lists scanned — not
// "candidates admitted".
func (s *Shard) scanADC(ps *shardPQ, q *query, sel *topk.Selector, start, stride int, buf *[]uint32) int {
	var dists [pq.BlockCodes]float32
	inf := float32(math.Inf(1))
	lists := q.sc.probe
	scanned := 0
	for i := start; i < len(lists); i += stride {
		l := lists[i]
		ids := s.inv.View(l, buf)
		scanned += len(ids)
		blocks := ps.lists[l]
		for base := 0; base < len(ids); base += pq.BlockCodes {
			n := min(pq.BlockCodes, len(ids)-base)
			worst, bounded := sel.WorstDist()
			bound := inf
			if bounded {
				bound = worst
			}
			// A code abandoned above bound reads +Inf and fails the
			// d > worst test below, exactly as its full distance would.
			blocks.score(q.sc.lut, blocks.block(base/pq.BlockCodes), n, bound, &dists)
			for sl, d := range dists[:n] {
				// Skipping on d > worst never changes the result — the
				// selector would reject the push — it only skips the
				// admission read, so serial and striped scans still
				// select identical candidates.
				if bounded && d > worst {
					continue
				}
				id := ids[base+sl]
				if !q.adm.admit(id) {
					continue // off-market or filtered out (§2.2 validity, scope, predicates)
				}
				if sel.Push(uint64(id), d) {
					worst, bounded = sel.WorstDist()
				}
			}
		}
	}
	return scanned
}

// Stats returns a snapshot of shard counters.
func (s *Shard) Stats() Stats {
	s.statsMu.Lock()
	st := s.stats
	s.statsMu.Unlock()
	st.Images = s.fwd.Len()
	st.ValidImages = s.valid.Count()
	st.FilteredSearches = s.filteredSearches.Load()
	st.ExactPlanSearches = s.exactPlanSearches.Load()
	if s.inv != nil {
		st.Lists = s.inv.Lists()
	}
	st.FeatureHeapBytes = s.feats.heapBytes()
	if ps := s.pqState.Load(); ps != nil {
		st.PQCodes = ps.codeCount()
		st.PQBits = 8
		if ps.cb.Bits == 4 {
			st.PQBits = 4
		}
		st.PQCodeBytes = ps.codeHeapBytes()
	}
	return st
}

func (s *Shard) bump(fn func(*Stats)) {
	s.statsMu.Lock()
	fn(&s.stats)
	s.statsMu.Unlock()
}

// snapshot format identifiers. There is one version: [magic][1B version]
// [8B covered queue offset] + IVF codebook + forward + inverted + validity
// bitmap + features + PQ section ([1B present], then when present [1B bits]
// + PQ codebook + per-list codes, writeCodeBlockLists). Streams of any
// other version are refused — a snapshot is a cache of one full-index
// cycle, so the remedy is to run that cycle again, not to carry readers
// for layouts no deployed build writes.
const (
	snapMagic   = "JDVSSNAP"
	snapVersion = 4
)

// WriteSnapshot serialises the full shard (covered offset, codebook,
// forward, inverted, bitmap, features, PQ codebook + codes when
// installed). The real-time writer must be quiesced.
func (s *Shard) WriteSnapshot(w io.Writer) error {
	if s.codebook == nil {
		return ErrNotTrained
	}
	if _, err := io.WriteString(w, snapMagic); err != nil {
		return err
	}
	if _, err := w.Write([]byte{snapVersion}); err != nil {
		return err
	}
	var off [8]byte
	binary.LittleEndian.PutUint64(off[:], uint64(s.coveredOffset.Load()))
	if _, err := w.Write(off[:]); err != nil {
		return err
	}
	if err := writeCodebook(w, s.codebook); err != nil {
		return fmt.Errorf("index: snapshot codebook: %w", err)
	}
	if _, err := s.fwd.WriteTo(w); err != nil {
		return fmt.Errorf("index: snapshot forward: %w", err)
	}
	if _, err := s.inv.WriteTo(w); err != nil {
		return fmt.Errorf("index: snapshot inverted: %w", err)
	}
	if err := writeBitmap(w, s.valid); err != nil {
		return fmt.Errorf("index: snapshot bitmap: %w", err)
	}
	if _, err := s.feats.writeTo(w); err != nil {
		return fmt.Errorf("index: snapshot features: %w", err)
	}
	ps := s.pqState.Load()
	if ps == nil {
		if _, err := w.Write([]byte{0}); err != nil {
			return err
		}
		return nil
	}
	bits := byte(8)
	if ps.cb.Bits == 4 {
		bits = 4
	}
	if _, err := w.Write([]byte{1, bits}); err != nil {
		return err
	}
	if err := writePQCodebook(w, ps.cb); err != nil {
		return fmt.Errorf("index: snapshot pq codebook: %w", err)
	}
	if err := writeCodeBlockLists(w, ps.lists); err != nil {
		return fmt.Errorf("index: snapshot pq code lists: %w", err)
	}
	return nil
}

// checkRowsListed verifies what appendRow guarantees of a loaded shard:
// one feature row per forward record, and every row in exactly one inverted
// list. A snapshot that breaks it would serve searches but fail every later
// insert on an id skew, or return an image twice.
func checkRowsListed(rows int, feats *featMat, inv *inverted.Index) error {
	if feats.Len() != rows || inv.Len() != rows {
		return fmt.Errorf("index: snapshot has %d records, %d feature rows, %d list entries",
			rows, feats.Len(), inv.Len())
	}
	seen := make(bitmapx.Words, (rows+63)/64)
	var buf []uint32
	for l := 0; l < inv.Lists(); l++ {
		for _, id := range inv.View(l, &buf) {
			if int(id) >= rows || seen.Get(id) {
				return fmt.Errorf("index: snapshot list %d holds id %d twice or past %d rows", l, id, rows)
			}
			seen[id/64] |= 1 << (id % 64)
		}
	}
	return nil
}

// LoadSnapshot replaces the shard contents, shape included, from a
// WriteSnapshot stream and rebuilds the URL table from the forward index.
// Readers and the writer must be quiesced. A stream of another snapshot
// version is refused before anything is replaced.
func (s *Shard) LoadSnapshot(r io.Reader) error {
	magic := make([]byte, len(snapMagic)+1)
	if _, err := io.ReadFull(r, magic); err != nil {
		return fmt.Errorf("index: snapshot header: %w", err)
	}
	if string(magic[:len(snapMagic)]) != snapMagic {
		return errors.New("index: bad snapshot magic")
	}
	if version := magic[len(snapMagic)]; version != snapVersion {
		return fmt.Errorf("index: snapshot version %d unsupported (this build reads v%d only; rebuild with a full index cycle)",
			version, snapVersion)
	}
	var off [8]byte
	if _, err := io.ReadFull(r, off[:]); err != nil {
		return fmt.Errorf("index: snapshot covered offset: %w", err)
	}
	covered := int64(binary.LittleEndian.Uint64(off[:]))
	if covered < 0 {
		return fmt.Errorf("index: corrupt snapshot covered offset %d", covered)
	}
	cb, err := readCodebook(r)
	if err != nil {
		return fmt.Errorf("index: snapshot codebook: %w", err)
	}
	if _, err := s.fwd.ReadFrom(r); err != nil {
		return fmt.Errorf("index: snapshot forward: %w", err)
	}
	inv, err := inverted.ReadFrom(r, cb.K)
	if err != nil {
		return fmt.Errorf("index: snapshot inverted: %w", err)
	}
	if err := readBitmap(r, s.valid, s.fwd.Len()); err != nil {
		return fmt.Errorf("index: snapshot bitmap: %w", err)
	}
	feats, err := readFeatMat(r, cb.Dim)
	if err != nil {
		return fmt.Errorf("index: snapshot features: %w", err)
	}
	if err := checkRowsListed(s.fwd.Len(), feats, inv); err != nil {
		return err
	}
	var fresh *shardPQ
	var flag [1]byte
	if _, err := io.ReadFull(r, flag[:]); err != nil {
		return fmt.Errorf("index: snapshot pq flag: %w", err)
	}
	if flag[0] == 1 {
		var bb [1]byte
		if _, err := io.ReadFull(r, bb[:]); err != nil {
			return fmt.Errorf("index: snapshot pq bits: %w", err)
		}
		if bb[0] != 4 && bb[0] != 8 {
			return fmt.Errorf("index: corrupt snapshot pq bits %d", bb[0])
		}
		pcb, err := readPQCodebook(r, int(bb[0]), cb.Dim)
		if err != nil {
			return fmt.Errorf("index: snapshot pq codebook: %w", err)
		}
		lists, err := readCodeBlockLists(r, cb.K, pcb)
		if err != nil {
			return fmt.Errorf("index: snapshot pq code lists: %w", err)
		}
		// Slot alignment is the ADC scan's correctness condition: every
		// list's code count must match its inverted length. A truncated or
		// mismatched code section fails the load here instead of serving
		// shifted codes.
		for l, blocks := range lists {
			if int(blocks.published()) != inv.ListLen(l) {
				return fmt.Errorf("index: snapshot pq list %d has %d codes, inverted %d entries",
					l, blocks.published(), inv.ListLen(l))
			}
		}
		fresh = &shardPQ{cb: pcb, lists: lists}
	} else if flag[0] != 0 {
		return fmt.Errorf("index: corrupt snapshot pq flag %d", flag[0])
	}
	s.codebook, s.inv, s.feats = cb, inv, feats
	s.pqState.Store(fresh)
	// Rebuild the per-category bitmaps from the forward records. Stale
	// generations (tombstoned by feature refreshes) keep their bits — their
	// validity bit is 0, and admission intersects with validity — so a
	// snapshot-loaded replica filters identically to the shard that wrote
	// it. The snapshot's attributes also replace whatever the predicate
	// cache was built against.
	catsDir := []*bitmapx.Bitmap{}
	for id := uint32(0); id < uint32(s.fwd.Len()); id++ {
		_, _, _, cat, ok := s.fwd.Numeric(id)
		if !ok {
			continue
		}
		for int(cat) >= len(catsDir) {
			catsDir = append(catsDir, nil)
		}
		if catsDir[cat] == nil {
			catsDir[cat] = bitmapx.New(0)
		}
		catsDir[cat].Set(id)
	}
	s.cats.Store(&catsDir)
	s.attrEpoch.Add(1)
	s.predCache.Store(nil)
	// Rebuild the URL table from the forward index. The scan ascends, so
	// the newest generation of a re-listed URL wins, as it does on the
	// writer after a feature refresh.
	byURL := make(map[string]core.ImageID, s.fwd.Len())
	for id := uint32(0); id < uint32(s.fwd.Len()); id++ {
		a, ok := s.fwd.Get(id)
		if !ok || a.URL == "" {
			continue
		}
		byURL[a.URL] = id
	}
	s.tabMu.Lock()
	s.byURL = byURL
	s.tabMu.Unlock()
	// The watermark goes last: it claims the shard covers the queue up to
	// `covered`, so every structure backing that claim must already be
	// installed when a concurrent CoveredOffset call observes it.
	s.coveredOffset.Store(covered)
	return nil
}
