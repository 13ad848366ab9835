// Package fibcomp is an entropy-bounded IP FIB compression library,
// reproducing Rétvári et al., "Compressing IP Forwarding Tables:
// Towards Entropy Bounds and Beyond" (SIGCOMM 2013).
//
// It provides two compressed FIB representations:
//
//   - XBW-b, a succinct, static transform storing a FIB in about
//     2n + n·H0 bits while answering longest prefix match in O(W)
//     directly on the compressed form; and
//   - the trie-folding prefix DAG, a pointer machine that compresses to
//     within a small constant of the FIB entropy, looks up in strictly
//     O(W) — it is standard trie lookup — and supports updates in
//     nearly optimal time via a tunable leaf-push barrier λ.
//
// For serving, CompressSharded partitions the address space into 2^k
// independent prefix DAGs behind atomic copy-on-write pointers, so
// batched lookups run lock-free in parallel while updates republish
// only the shard they touch (cmd/fibserve -shards). The serving hot
// paths are software-pipelined and allocation-free: ShardedFIB's
// LookupBatchInto (and Blob's, for the flat engine) overlaps the
// batch's memory accesses through interleaved lookup lanes, and a
// steady-churn Set/Delete republishes a shard with zero heap
// allocations: the shards share one append-only arena of node words,
// so a publish appends only the nodes the update created.
//
// Alongside the compressors the module ships the measurement apparatus
// of the paper's evaluation: FIB entropy metrics, workload generators,
// an ORTC aggregation baseline, an LC-trie (fib_trie-like) baseline, a
// CPU cache simulator and an FPGA lookup-engine model. See DESIGN.md
// for the full system inventory and EXPERIMENTS.md for paper-vs-
// measured results.
//
// Quick start:
//
//	t := fibcomp.MustParse(
//	    "0.0.0.0/0 1",
//	    "10.0.0.0/8 2",
//	)
//	d, _ := fibcomp.Compress(t, fibcomp.DefaultBarrier)
//	nh := d.Lookup(0x0A000001) // → 2
//	d.Set(0x0A010000, 16, 3)   // live update
package fibcomp

import (
	"io"

	"fibcomp/internal/bounds"
	"fibcomp/internal/fib"
	"fibcomp/internal/lctrie"
	"fibcomp/internal/ortc"
	"fibcomp/internal/pdag"
	"fibcomp/internal/shardfib"
	"fibcomp/internal/trie"
	"fibcomp/internal/xbw"
)

// W is the address width in bits (IPv4).
const W = fib.W

// NoLabel marks "no route".
const NoLabel = fib.NoLabel

// DefaultBarrier is the leaf-push barrier the paper settles on for
// FIB-scale tables (§5.1): λ = 11 wins essentially all the space
// reduction while sustaining ~100 K updates/s.
const DefaultBarrier = 11

// DefaultShards is the default partition of the sharded serving
// engine: the top 4 address bits select one of 16 shards.
const DefaultShards = shardfib.DefaultShards

// Re-exported core types. The aliases make the internal packages'
// documented APIs reachable through the public module surface.
type (
	// Table is a FIB in tabular form: prefix → next-hop label rows
	// plus a neighbor table.
	Table = fib.Table
	// Entry is one FIB row.
	Entry = fib.Entry
	// Neighbor is next-hop metadata.
	Neighbor = fib.Neighbor
	// Trie is a plain binary prefix tree (the classic representation).
	Trie = trie.Trie
	// TrieStats carries the entropy metrics of §2: n, δ, H0, the
	// information-theoretic limit I and the FIB entropy E.
	TrieStats = trie.Stats
	// PrefixDAG is the trie-folding compressed FIB (§4).
	PrefixDAG = pdag.DAG
	// Blob is the serialized prefix DAG lookup structure (§5.3).
	Blob = pdag.Blob
	// BlobV2 is the stride-compressed serialized form: the folded
	// region below the barrier is emitted as stride-4 tree-bitmap
	// nodes, cutting the dependent memory-touch chain of a deep walk
	// from W−λ to ⌈(W−λ)/4⌉. Bit-identical to Blob on every lookup.
	BlobV2 = pdag.BlobV2
	// XBW is the succinct XBW-b FIB representation (§3).
	XBW = xbw.FIB
	// LCTrie is the level-compressed multibit trie baseline
	// (fib_trie).
	LCTrie = lctrie.Trie
	// ShardedFIB is the sharded concurrent serving engine: 2^k
	// prefix DAGs behind atomic copy-on-write pointers, lock-free
	// (batched) lookups, per-shard updates and hot reload.
	ShardedFIB = shardfib.FIB
)

// NewTable returns an empty FIB table.
func NewTable() *Table { return fib.New() }

// ReadTable parses the text FIB format ("a.b.c.d/len label" lines).
func ReadTable(r io.Reader) (*Table, error) { return fib.Read(r) }

// MustParse builds a table from entry strings, panicking on malformed
// input; for tests and examples.
func MustParse(lines ...string) *Table { return fib.MustParse(lines...) }

// ParsePrefix parses "a.b.c.d/len".
func ParsePrefix(s string) (addr uint32, plen int, err error) { return fib.ParsePrefix(s) }

// ParseAddr parses a dotted-quad address.
func ParseAddr(s string) (uint32, error) { return fib.ParseAddr(s) }

// Compress builds the trie-folding prefix DAG of a FIB with leaf-push
// barrier lambda. Use DefaultBarrier, or AutoBarrier for the
// entropy-optimal setting of eq. (3).
func Compress(t *Table, lambda int) (*PrefixDAG, error) { return pdag.Build(t, lambda) }

// CompressSharded partitions the FIB by the top address bits into
// `shards` (a power of two) prefix DAGs for concurrent serving:
// lookups are lock-free and may be batched, while Set/Delete/Reload
// rebuild and atomically republish only the shards they touch.
// Lookups are bit-identical to the flat Compress DAG. The barrier must
// lie in [log2 shards, 16] — the range the engine keeps a merged root
// array for; any other is an error.
func CompressSharded(t *Table, lambda, shards int) (*ShardedFIB, error) {
	return shardfib.Build(t, lambda, shards)
}

// CompressXBW builds the succinct XBW-b representation.
func CompressXBW(t *Table) (*XBW, error) { return xbw.New(t) }

// Aggregate runs ORTC optimal FIB aggregation, returning a
// forwarding-equivalent table with the minimum number of prefixes.
func Aggregate(t *Table) *Table { return ortc.Compress(t) }

// BuildLCTrie builds the fib_trie-like baseline (fill factor 0.5,
// 16-bit root), as used in the Table 2 comparison.
func BuildLCTrie(t *Table) (*LCTrie, error) { return lctrie.Build(t, 0.5, 16) }

// Metrics normalizes the FIB by leaf-pushing and returns the paper's
// compressibility metrics: leaf count n, next-hop count δ, entropy H0,
// the information-theoretic lower bound I = 2n + n·lg δ bits and the
// FIB entropy E = 2n + n·H0 bits.
func Metrics(t *Table) TrieStats {
	return trie.FromTable(t).LeafPush().LeafStats()
}

// AutoBarrier computes the entropy-optimal leaf-push barrier of
// eq. (3), λ = ⌊W(n·H0·ln 2)/ln 2⌋, from the FIB's measured metrics.
func AutoBarrier(t *Table) int {
	s := Metrics(t)
	return bounds.LambdaEntropy(s.Leaves, s.H0)
}

// CompressString applies trie-folding as a compressed string
// self-index (§4.2, Fig 4): s (length a power of two) is written on
// the leaves of a complete binary trie and folded; index symbols with
// (*PrefixDAG).Access.
func CompressString(s []uint32, lambda int) (*PrefixDAG, error) {
	return pdag.BuildString(s, lambda)
}
