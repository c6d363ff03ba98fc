// Package search defines the wire contract shared by the three tiers of
// the online search architecture (Fig. 10): RPC method identifiers and the
// cross-tier stats payload. The tiers themselves live in the subpackages
// searcher, broker, blender and frontend; client provides the caller-side
// API.
package search

import "jdvs/internal/rpc"

// RPC method identifiers. A method's request/response payloads are the
// core codecs noted beside it.
const (
	// MethodSearch: core.SearchRequest → core.SearchResponse. Served by
	// searchers (single-partition scan), brokers (fan-out to their searcher
	// subset) and blenders (feature-direct global search).
	MethodSearch uint16 = 1
	// MethodQuery: core.QueryRequest → core.SearchResponse. Served by
	// blenders (image in, ranked products out) and the frontend (load
	// balancing proxy).
	MethodQuery uint16 = 2
	// MethodStats: empty → JSON stats blob. Served by all tiers.
	MethodStats uint16 = 3
	// MethodPing: empty → empty. Liveness probe.
	MethodPing uint16 = 4
	// 5 was the single-frame snapshot push; retired, never reuse.

	// Snapshot push: the weekly full indexing pushes fresh partition
	// indexes to the fleet and each searcher hot-swaps with zero downtime
	// (§2.2), as a chunked session (rpc.StreamMethods wiring; payload
	// formats are defined by package rpc's stream codec) however small the
	// snapshot. A pusher begins a session,
	// streams the snapshot as sequence-numbered CRC-checked chunks, and
	// commits; the searcher materialises the shard incrementally and only
	// hot-swaps it in on a verified commit. Abort (explicit, or implicit via
	// the receiver's idle timeout) discards the partial transfer without
	// touching the serving shard.
	//
	// MethodLoadIndexBegin: empty → [8B sessionID].
	MethodLoadIndexBegin uint16 = 6
	// MethodLoadIndexChunk: [8B sessionID][8B seq][4B crc32c][data] → empty.
	MethodLoadIndexChunk uint16 = 7
	// MethodLoadIndexCommit: [8B sessionID][8B chunks][8B bytes][4B crc32c]
	// → empty; swaps the shard in on success.
	MethodLoadIndexCommit uint16 = 8
	// MethodLoadIndexAbort: [8B sessionID] → empty.
	MethodLoadIndexAbort uint16 = 9
)

// LoadIndexStream is the rpc.StreamMethods wiring for chunked snapshot
// distribution, shared by the searcher (receiver) and push path (sender).
var LoadIndexStream = rpc.StreamMethods{
	Begin:  MethodLoadIndexBegin,
	Chunk:  MethodLoadIndexChunk,
	Commit: MethodLoadIndexCommit,
	Abort:  MethodLoadIndexAbort,
}
