package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"

	"jdvs/internal/cluster"
	"jdvs/internal/cnn"
	"jdvs/internal/core"
	"jdvs/internal/imaging"
	"jdvs/internal/index"
	"jdvs/internal/indexer"
	"jdvs/internal/mq"
	"jdvs/internal/msg"
	"jdvs/internal/pq"
	"jdvs/internal/ranking"
	"jdvs/internal/search/client"
)

// sink keeps the compiler from discarding timed calls.
var sink float32

// directLayers times calls into the layers' public functions, one layer at
// a time on an otherwise idle process. reqs are the trace requests in the
// form a searcher receives them; events are seeded product update events.
func directLayers(ctx context.Context, tc *tracer, c *cluster.Cluster, tr *traffic, reqs []*core.SearchRequest, events []*msg.ProductUpdate, scannedPerShard float64, rep *report) error {
	n := len(reqs)
	shard := c.Searcher(0, 0).Shard()
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// index: the shard search itself, unfiltered, filtered and batched.
	rep.layer("index.search_us", tc.medianUs("index.search.direct", "", n, func(i int) {
		_, err := shard.Search(reqs[i])
		note(err)
	}), "us")
	rep.layer("index.search_filtered_us", tc.medianUs("index.search_filtered", "", n, func(i int) {
		f := *reqs[i]
		f.Category = tr.cats[i%len(tr.cats)]
		f.MinPriceCents, f.MaxPriceCents = bandMinCents, bandMaxCents
		_, err := shard.Search(&f)
		note(err)
	}), "us")
	rep.layer("index.search_batch8_us_per_query", tc.medianUs("index.search_batch8", "", n/8, func(i int) {
		_, errs := shard.SearchBatch(reqs[8*i : 8*i+8])
		for _, err := range errs {
			note(err)
		}
	})/8, "us")

	// pq: table build, the scan kernel over synthetic codes, and encoding.
	// A shard that scans exact floats has no quantizer; these read 0 there.
	var lutUs, nsPerCode, encodeUs float64
	if cb := shard.PQCodebook(); cb != nil {
		var lut []float32
		lutUs = tc.medianUs("pq.lut.direct", "", n, func(i int) {
			var err error
			lut, err = cb.BuildLUT(reqs[i].Feature, lut)
			note(err)
		})
		nsPerCode = scanKernelNs(tc, cb, lut)
		code := make([]byte, cb.CodeBytes())
		encodeUs = tc.medianUs("pq.encode", "", n, func(i int) { note(cb.Encode(reqs[i].Feature, code)) })
	}
	rep.layer("pq.lut_us", lutUs, "us")
	rep.layer("pq.scan_ns_per_code", nsPerCode, "ns")
	rep.layer("pq.scan_est_us", nsPerCode*scannedPerShard/1000, "us") // computed, not timed
	rep.layer("pq.encode_us", encodeUs, "us")

	// blender: the pipeline head a feature-cache hit skips, and ranking.
	rep.layer("blender.extract_us", tc.medianUs("blender.extract", "", n, func(i int) {
		img, err := imaging.Decode(tr.blobs[i%len(tr.blobs)])
		if err == nil {
			_, err = cnn.Detect(img)
		}
		if err == nil {
			_, err = c.Extractor.Extract(img)
		}
		note(err)
	}), "us")
	var merged [][]core.Hit
	for i := 0; i < n; i++ {
		var hits []core.Hit
		for p := 0; p < c.Partitions(); p++ {
			resp, err := c.Searcher(p, 0).Shard().Search(reqs[i])
			note(err)
			if resp != nil {
				hits = append(hits, resp.Hits...)
			}
		}
		merged = append(merged, hits)
	}
	ranker := ranking.New(ranking.DefaultWeights())
	rep.layer("ranking.rank_us", tc.medianUs("ranking.rank", "", n, func(i int) { ranker.Rank(merged[i], topK) }), "us")

	// rpc and codec: one loopback round trip, and a 10-hit page through
	// the wire format.
	front, err := client.Dial(c.FrontendAddr(), 1)
	if err != nil {
		return err
	}
	defer front.Close()
	rep.layer("rpc.roundtrip_us", tc.medianUs("rpc.roundtrip", "", n, func(int) { note(front.Ping(ctx)) }), "us")
	rep.layer("core.codec_us", tc.medianUs("core.codec", "", n, func(i int) {
		page := &core.SearchResponse{Hits: merged[i]}
		if len(page.Hits) > topK {
			page.Hits = page.Hits[:topK]
		}
		_, err := core.DecodeSearchResponse(core.EncodeSearchResponse(page))
		note(err)
	}), "us")

	if err := directUpdatePath(tc, c, events, rep); err != nil {
		return err
	}
	return firstErr
}

// scanKernelNs times the ADC scan kernel of cb's bit width over synthetic
// codes and returns nanoseconds per code.
func scanKernelNs(tc *tracer, cb *pq.Codebook, lut []float32) float64 {
	const codes = 1 << 15
	rng := rand.New(rand.NewSource(corpusSeed))
	buf := make([]byte, codes*cb.CodeBytes())
	rng.Read(buf)
	var usPerPass float64
	if cb.Bits == 4 {
		mb := cb.CodeBytes()
		var out [pq.BlockCodes]float32
		usPerPass = tc.medianUs("pq.scan_kernel", "", 21, func(int) {
			for b := 0; b+mb*pq.BlockCodes <= len(buf); b += mb * pq.BlockCodes {
				pq.ScanBlock4(lut, buf[b:b+mb*pq.BlockCodes], mb, &out)
				sink += out[0]
			}
		})
	} else {
		var out []float32
		usPerPass = tc.medianUs("pq.scan_kernel", "", 21, func(int) {
			out = pq.ADCScan(lut, buf, cb.M, out)
			sink += out[0]
		})
	}
	return usPerPass * 1000 / codes
}

// directUpdatePath times each stage of the real-time path on scratch
// copies: routing into a fresh queue, produce and poll on it, resolving
// features, and applying to a shard cloned through the snapshot codec. The
// serving cluster is not touched.
func directUpdatePath(tc *tracer, c *cluster.Cluster, events []*msg.ProductUpdate, rep *report) error {
	n := len(events)
	q := mq.New()
	defer q.Close()
	if err := q.CreateTopic(indexer.UpdatesTopic, c.Partitions()); err != nil {
		return err
	}
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	rep.layer("indexer.route_us", tc.medianUs("indexer.route", "", n, func(i int) {
		_, err := indexer.RouteUpdate(q, events[i])
		note(err)
	}), "us")
	payloads := make([][]byte, n)
	for i, u := range events {
		payloads[i] = u.Encode()
	}
	const scratchTopic = "bench-scratch"
	if err := q.CreateTopic(scratchTopic, 1); err != nil {
		return err
	}
	rep.layer("mq.produce_us", tc.medianUs("mq.produce", "", n, func(i int) {
		_, err := q.Produce(scratchTopic, 0, payloads[i])
		note(err)
	}), "us")
	consumer, err := q.NewConsumer(scratchTopic, 0, 0)
	if err != nil {
		return err
	}
	rep.layer("mq.poll_us", tc.medianUs("mq.poll", "", n, func(int) {
		_, err := consumer.Poll(1, 0)
		note(err)
	}), "us")

	// Resolve and apply see per-image events, and the scratch shard is a
	// copy of partition 0, so they take the images that partition owns.
	var owned []*msg.ProductUpdate
	for _, u := range events {
		for _, url := range u.ImageURLs {
			if mq.PartitionFor(url, c.Partitions()) == 0 {
				per := *u
				per.ImageURLs = []string{url}
				owned = append(owned, &per)
			}
		}
	}
	resolver := &indexer.Resolver{DB: c.Features, Images: c.Images, Extractor: c.Extractor}
	rep.layer("indexer.resolve_us", tc.medianUs("indexer.resolve", "", len(owned), func(i int) {
		u := owned[i]
		_, _, err := resolver.Resolve(u.ImageURLs[0], core.Attrs{ProductID: u.ProductID, Category: u.Category, URL: u.ImageURLs[0]})
		note(err)
	}), "us")

	var snap bytes.Buffer
	src := c.Searcher(0, 0).Shard()
	if err := src.WriteSnapshot(&snap); err != nil {
		return err
	}
	scratch, err := index.New(src.Config())
	if err != nil {
		return err
	}
	defer scratch.Close()
	if err := scratch.LoadSnapshot(&snap); err != nil {
		return fmt.Errorf("clone shard: %w", err)
	}
	rep.layer("indexer.apply_us", tc.medianUs("indexer.apply", "", len(owned), func(i int) {
		_, _, err := indexer.Apply(scratch, resolver, owned[i])
		note(err)
	}), "us")
	return firstErr
}
