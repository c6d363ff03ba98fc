// Command jdvsd runs one node of the search hierarchy (Fig. 10) as its own
// process, for multi-process / multi-host deployment. Bring a cluster up
// tier by tier:
//
//	jdvs-indexer -out /tmp/jdvs -partitions 2 -products 5000
//	jdvsd -role searcher -addr :7101 -partition 0 -snapshot /tmp/jdvs/part0.snap &
//	jdvsd -role searcher -addr :7102 -partition 1 -snapshot /tmp/jdvs/part1.snap &
//	jdvsd -role broker   -addr :7201 -searchers "127.0.0.1:7101;127.0.0.1:7102" &
//	jdvsd -role blender  -addr :7301 -brokers 127.0.0.1:7201 &
//	jdvsd -role frontend -addr :7001 -blenders 127.0.0.1:7301 &
//	jdvs-client -addr 127.0.0.1:7001 -query-product 42
//
// A searcher serves what its snapshot holds: its shape (feature
// dimensionality and IVF list count) and scan path. Only blenders take
// -dim, which must match the indexer's.
//
// Searcher address lists: partitions are separated by ';', replicas of one
// partition by ','.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"jdvs/internal/cnn"
	"jdvs/internal/core"
	"jdvs/internal/index"
	"jdvs/internal/search/blender"
	"jdvs/internal/search/broker"
	"jdvs/internal/search/frontend"
	"jdvs/internal/search/searcher"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "jdvsd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		role      = flag.String("role", "", "node role: searcher, broker, blender, frontend")
		addr      = flag.String("addr", "127.0.0.1:0", "listen address")
		partition = flag.Int("partition", 0, "searcher: partition number, 0 to 65535")
		snapshot  = flag.String("snapshot", "", "searcher: snapshot file to serve")
		dim       = flag.Int("dim", cnn.DefaultDim, "blender: feature dimensionality (must match the indexer)")
		nprobe    = flag.Int("nprobe", 0, "searcher: inverted lists probed per query when the request does not specify (0 = default 8, clamped to the snapshot's list count)")
		searchers = flag.String("searchers", "", "broker: searcher addresses, ';' between partitions, ',' between replicas")
		brokers   = flag.String("brokers", "", "blender: comma-separated broker addresses")
		blenders  = flag.String("blenders", "", "frontend: comma-separated blender addresses")
		fseed     = flag.Int64("feature-seed", 42, "blender: CNN weight seed (must match the indexer)")
		workers   = flag.Int("search-workers", 0, "searcher: goroutines scanning probed lists per query (0 = GOMAXPROCS-derived, 1 = serial)")
		loadIdle  = flag.Duration("load-idle-timeout", 0, "searcher: abort an inbound snapshot stream idle longer than this (0 = default)")
		pqRerank  = flag.Int("pq-rerank", 0, "searcher: ADC over-fetch depth re-ranked exactly per query (0 = bit-width default: 20×TopK at 8 bits, 30×TopK at 4)")
		hedgeQ    = flag.Float64("hedge-quantile", 0, "broker: latency percentile that triggers a hedged replica request (0 = default 95, negative disables)")
		hedgeMin  = flag.Duration("hedge-min-delay", 0, "broker: floor on the hedge delay (0 = default 1ms)")
		hedgeFrac = flag.Float64("hedge-max-fraction", 0, "broker: hedge budget as a fraction of query volume (0 = default 0.1)")
		resCache  = flag.Int("result-cache", 0, "broker: result-cache capacity in pages, keyed by request digest and invalidated by the searchers' applied-offset watermarks (0 = disabled)")
		resLag    = flag.Int64("result-cache-max-lag", 0, "broker: queue offsets a covered shard may advance past a cached page's watermark before the page is dropped (0 = any advance invalidates)")
		featCache = flag.Int("feature-cache", 0, "blender: feature-cache capacity in vectors, keyed by query-image content hash — a repeated image skips decode/detect/extract (0 = disabled)")
	)
	flag.Parse()

	var (
		boundAddr string
		closer    func()
	)
	switch *role {
	case "searcher":
		if *snapshot == "" {
			return fmt.Errorf("searcher needs -snapshot")
		}
		// Hits carry the partition in their packed image IDs
		// (core.ImageRef.Pack): a wrapped value would alias another's.
		if *partition < 0 || *partition > math.MaxUint16 {
			return fmt.Errorf("-partition %d out of range [0, %d]", *partition, math.MaxUint16)
		}
		shard, err := index.New(index.Config{
			DefaultNProbe: *nprobe, SearchWorkers: *workers, RerankK: *pqRerank,
		})
		if err != nil {
			return err
		}
		f, err := os.Open(*snapshot)
		if err != nil {
			return err
		}
		err = shard.LoadSnapshot(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("load snapshot: %w", err)
		}
		node, err := searcher.New(searcher.Config{
			Partition:       core.PartitionID(*partition),
			Shard:           shard,
			Addr:            *addr,
			LoadIdleTimeout: *loadIdle,
		})
		if err != nil {
			return err
		}
		boundAddr, closer = node.Addr(), node.Close
		// The snapshot decides the shape and the scan path: one written
		// with a product quantizer (jdvs-indexer -pq-subvectors) serves
		// ADC codes, one without serves the exact float scan.
		st := shard.Stats()
		scanPath := "exact scan"
		if shard.PQEnabled() {
			cb := shard.PQCodebook()
			scanPath = fmt.Sprintf("ADC scan, %d-bit PQ, %d-byte codes", st.PQBits, cb.CodeBytes())
		}
		fmt.Printf("searcher partition %d serving %d images (%d valid, %s, %d lists, dim %d, %.1f MiB feature heap) on %s\n",
			*partition, st.Images, st.ValidImages, scanPath, st.Lists, shard.Codebook().Dim,
			float64(st.FeatureHeapBytes)/(1<<20), boundAddr)

	case "broker":
		if *searchers == "" {
			return fmt.Errorf("broker needs -searchers")
		}
		var groups [][]string
		for _, group := range strings.Split(*searchers, ";") {
			var replicas []string
			for _, a := range strings.Split(group, ",") {
				if a = strings.TrimSpace(a); a != "" {
					replicas = append(replicas, a)
				}
			}
			if len(replicas) > 0 {
				groups = append(groups, replicas)
			}
		}
		node, err := broker.New(broker.Config{
			PartitionReplicas: groups,
			Addr:              *addr,
			HedgeQuantile:     *hedgeQ,
			HedgeMinDelay:     *hedgeMin,
			HedgeMaxFraction:  *hedgeFrac,
			ResultCacheSize:   *resCache,
			ResultCacheMaxLag: *resLag,
		})
		if err != nil {
			return err
		}
		boundAddr, closer = node.Addr(), node.Close
		fmt.Printf("broker serving %d partitions on %s\n", len(groups), boundAddr)

	case "blender":
		if *brokers == "" {
			return fmt.Errorf("blender needs -brokers")
		}
		node, err := blender.New(blender.Config{
			Brokers:          splitAddrs(*brokers),
			Extractor:        cnn.New(cnn.Config{Dim: *dim, Seed: *fseed}),
			Addr:             *addr,
			FeatureCacheSize: *featCache,
		})
		if err != nil {
			return err
		}
		boundAddr, closer = node.Addr(), node.Close
		fmt.Printf("blender over %d brokers on %s\n", len(splitAddrs(*brokers)), boundAddr)

	case "frontend":
		if *blenders == "" {
			return fmt.Errorf("frontend needs -blenders")
		}
		node, err := frontend.New(frontend.Config{Blenders: splitAddrs(*blenders), Addr: *addr})
		if err != nil {
			return err
		}
		boundAddr, closer = node.Addr(), node.Close
		fmt.Printf("frontend over %d blenders on %s\n", len(splitAddrs(*blenders)), boundAddr)

	default:
		return fmt.Errorf("unknown -role %q (want searcher, broker, blender, frontend)", *role)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	closer()
	return nil
}

func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
