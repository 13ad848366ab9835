// Package shardfib is the concurrent serving form of the compressed
// FIB: the 32-bit address space is partitioned by the top k bits into
// 2^k independent prefix-DAG shards, each published through an atomic
// copy-on-write pointer, and every publish refreshes a merged serving
// view — the live slice of each shard's serialized root array
// concatenated into one FIB-wide root — so the read hot path touches
// one array regardless of shard count. Lookups — single or batched —
// are lock-free: they pin the current merged view with one validated
// reference count and walk it, so they scale across cores and are
// never blocked by route churn. Batched lookups are additionally
// software-pipelined (pdag.LookupBatchMerged): a fetch pass overlaps
// the root loads of the whole batch, and walks that descend below the
// barrier advance through interleaved lanes whose dependent node
// fetches are in flight concurrently.
//
// Writes patch the owning shards' mutable DAGs in place (the
// near-optimal incremental update of §4.3) and freeze each changed
// shard into a serialized blob (§5.3). The engine folds all its
// shards into one pdag.Space arena: a publish appends only the
// folded nodes the batch created and rewrites the changed shards'
// 2^(λ-k)-entry root windows — into the window buffers of the
// snapshots retired two publishes ago, so steady churn allocates
// nothing — then splices the windows into the next merged view.
// In-flight lookups keep reading the previous view until the swap
// lands. The arena bounds its own garbage: when it would pass 1.5 ×
// its live words the publish goes to a new generation instead, every
// shard re-emitted into an array recycled from the generation before
// last.
//
// Sharding preserves longest-prefix-match exactly: every prefix of an
// address addr shares addr's top bits, so the shard owning addr holds
// every prefix that can match it, and lookups are bit-identical to a
// flat prefix DAG built from the whole table. A prefix shorter than k
// bits is replicated into each shard of its covering range; updates
// to such prefixes touch each covering shard in turn (per-shard
// atomicity, like any distributed FIB push).
package shardfib

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"fibcomp/internal/fib"
	"fibcomp/internal/obs"
	"fibcomp/internal/pdag"
	"fibcomp/internal/trie"
)

// MaxShards bounds the shard count; 256 shards (k=8) is already far
// past the point of diminishing returns for IPv4 serving.
const MaxShards = 256

// DefaultShards is the default partition: k=4, 16 shards.
const DefaultShards = 16

// mergedRootMaxLambda caps the barrier up to which publishes maintain
// the merged root array: the merge copies 2^λ entries, so past 64 K
// slots the copy would dominate the republish. Barriers outside
// [k, mergedRootMaxLambda] serve through the per-snapshot fallback
// path instead (correct, slower — never hit at the default λ=11).
const mergedRootMaxLambda = 16

// shard is one slice of the address space. cur is the published
// immutable snapshot; dag is the writer-owned mutable prefix DAG
// (with its control trie inside), guarded by mu together with the
// right to publish — and by the space lock every writer takes first.
// spare (same guards) is the snapshot retired by the previous publish:
// once no reader or merged view pins it, the next publish serializes
// into its buffers in place, so steady-churn republishing is
// double-buffered and allocation-free.
type shard struct {
	mu    sync.Mutex
	idx   int // this shard's index — names its root window
	dag   *pdag.DAG
	spare *snapshot
	cur   atomic.Pointer[snapshot]
}

// snapshot is the frozen serving form of one shard: the serialized
// blob when the barrier admits one (λ ≤ 24, always at the default
// λ=11), else a fresh fold of the shard's control trie. Exactly one of
// blob and dag is non-nil; either way it shares no mutable state with
// the writer DAG.
//
// readers counts the holders of this snapshot — in-flight lookups and
// the merged views referencing its buffers (see pin). The writer
// recycles a retired snapshot's buffers only after observing
// readers == 0, which the pin/validate protocol makes safe: a reader
// that pins a snapshot after it was retired fails validation and
// retries without ever dereferencing the contents.
type snapshot struct {
	blob    *pdag.Blob
	dag     *pdag.DAG
	gen     uint64 // arena generation blob.Nodes aliases
	readers atomic.Int64
}

func (s *snapshot) lookup(addr uint32) uint32 {
	if s.blob != nil {
		return s.blob.Lookup(addr)
	}
	return s.dag.Lookup(addr)
}

// pin loads the shard's current snapshot and registers as a holder of
// it. The increment-then-validate dance closes the recycle race: if
// the snapshot was retired (and possibly already being overwritten)
// between the load and the increment, the re-load observes a
// different current pointer, and the caller unpins and retries having
// never dereferenced the stale contents. Conversely, a successful
// validation proves the increment landed before the snapshot was
// retired, so the writer's readers==0 check cannot miss this holder.
func (sh *shard) pin() *snapshot {
	for {
		s := sh.cur.Load()
		s.readers.Add(1)
		if sh.cur.Load() == s {
			return s
		}
		s.readers.Add(-1)
		snapPinRetries.Inc()
	}
}

func (s *snapshot) unpin() { s.readers.Add(-1) }

// publish freezes the shard's writer DAG and swaps the published
// snapshot, retiring the previous one: it emits into the space's
// arena, publishing only the shard's root window. An unserializable
// barrier (λ > 24) falls back to refolding the control trie (the
// writer DAG itself must stay private and mutable), which cannot fail:
// Build validated λ.
//
// It reports false, having published nothing, when the arena ran out
// of node indices: emit then starts a new generation and republishes
// with last set, so that a table too large for any generation takes
// the fallback instead of looping.
//
// The snapshot retired two publishes ago is reused as the write
// buffer when nothing still pins it (lookups drain in one batch walk
// and the merged view's pin is released when the view itself is
// recycled, so under steady churn the republish allocates nothing); a
// pinned spare is dropped to the garbage collector — its arena
// generation with it, see recycleArena — and a fresh buffer allocated.
func (sh *shard) publish(f *FIB, last bool) bool {
	next := sh.spare
	var buf *pdag.Blob
	if next != nil && next.readers.Load() == 0 {
		buf = next.blob
		next.dag = nil
	} else {
		if next != nil && next.gen > f.leakGen {
			f.leakGen = next.gen
		}
		next = &snapshot{}
	}
	blob, err := sh.dag.SerializeShared(buf, sh.idx>>uint(f.shardBits-f.winBits), f.winBits)
	if err == nil {
		next.blob, next.gen = blob, f.space.Generation()
		sh.spare = sh.cur.Swap(next)
		return true
	}
	if !last && f.space.NeedsCompact() {
		return false
	}
	if d, err := pdag.FromTrie(sh.dag.Control(), f.lambda); err == nil {
		next.blob, next.dag = nil, d
		sh.spare = sh.cur.Swap(next)
	}
	return true
}

// combined is the merged serving view the read paths walk: the live
// 2^(λ-k) root slots of every shard's blob concatenated in shard
// order (root), each shard's folded-region node words (nodes), and the
// backing snapshots (snaps), which the view holds pinned for as long
// as it is reachable so their buffers cannot be recycled under a
// reader. root is empty when the barrier is outside
// [k, mergedRootMaxLambda] or a shard fell back to a folded-DAG
// snapshot; lookups then resolve per-address through snaps — still one
// pinned, consistent view.
//
// readers counts in-flight lookups, with the same pin/validate
// recycling protocol as snapshots; recycling a retired view is what
// finally unpins its snapshots.
type combined struct {
	root  []uint32
	nodes [][]uint32
	snaps []*snapshot

	// The walk geometry a pinned View needs to resolve without
	// touching the FIB again: the shard index width and the owning
	// FIB's shard shift, frozen per rebuild.
	lambda    int
	width     int
	shardBits int
	shift     uint

	readers atomic.Int64
}

func (c *combined) unpin() { c.readers.Add(-1) }

// FIB is a sharded, concurrently-updatable compressed FIB.
type FIB struct {
	shardBits int  // k
	shift     uint // fib.W - k; addr >> shift selects the shard
	lambda    int
	shards    []shard

	// space is the hash-cons universe the shard DAGs fold into and
	// whose arena their blobs alias: its own (own, the default), or one
	// BuildShared was handed so that near-identical tenant FIBs cost
	// little more than one. Every write takes the space lock first
	// (lock order: space → applyMu → shard.mu → combMu). merged says the barrier admits a merged root;
	// winBits is then shardBits, else 0: a shard publishes the 2^λ
	// array whole. windows is the root words the shards publish together.
	space   *pdag.Space
	own     bool
	merged  bool
	winBits int
	windows int

	// leakGen is the newest arena generation a snapshot was dropped to
	// the garbage collector from while still pinned: that generation's
	// array can never be proven drained, so it is never recycled.
	leakGen uint64

	// The engine's own arena as emit left it, for SizeBytes and the
	// gauges: resident and live node-word bytes, compactions so far.
	arenaResident, arenaLive atomic.Int64
	compactions              atomic.Uint64

	comb atomic.Pointer[combined] // the published merged view

	// combMu guards the merged view's double buffer: combSpare is the
	// view retired by the last publish (its snapshot pins still held),
	// combFree a drained view whose buffers the next rebuild reuses.
	// Lock order: shard.mu before combMu; rebuilds never take shard
	// locks.
	combMu    sync.Mutex
	combSpare *combined
	combFree  *combined

	// applyMu serializes ApplyBatch callers over the per-shard
	// grouping scratch, so steady batched churn reuses one set of
	// buffers instead of allocating per batch.
	applyMu      sync.Mutex
	applyScratch [][]Op
	applyTouched []int

	// ins is the optional telemetry hook (see Instruments); nil costs
	// the write path one pointer load per batch.
	ins atomic.Pointer[Instruments]
}

// Build partitions a FIB table into `shards` prefix DAGs (a power of
// two in [1, MaxShards]) folded with leaf-push barrier lambda, into an
// arena of the engine's own.
func Build(t *fib.Table, lambda, shards int) (*FIB, error) {
	return build(nil, t, lambda, shards)
}

// BuildShared builds a FIB whose shard DAGs fold into sp — the
// multi-tenant form: every FIB built into the same space deduplicates
// isomorphic folded subtrees with every other member on both the
// writer side (one hash-cons universe) and the serving side (blobs
// alias the space's shared arenas, and bit-identical root windows are
// interned). The barrier must satisfy k ≤ λ ≤ 16 so every shard
// serves through the merged root. Lookups are exactly as in a private
// FIB; writes take the space lock, serializing control-plane churn
// across tenants (data-plane reads are never blocked).
func BuildShared(sp *pdag.Space, t *fib.Table, lambda, shards int) (*FIB, error) {
	return build(sp, t, lambda, shards)
}

// build is the one constructor. An engine handed no space makes its
// own arena, and starts that arena's first generation once the fold
// has said how large it must be.
func build(sp *pdag.Space, t *fib.Table, lambda, shards int) (*FIB, error) {
	if shards < 1 || shards > MaxShards || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("shardfib: shard count %d not a power of two in [1,%d]", shards, MaxShards)
	}
	f := &FIB{
		shardBits: bits.TrailingZeros(uint(shards)),
		lambda:    lambda,
		shards:    make([]shard, shards),
		space:     sp,
	}
	f.shift = uint(fib.W - f.shardBits)
	if f.merged = f.shardBits <= lambda && lambda <= mergedRootMaxLambda; f.merged {
		f.winBits = f.shardBits
	} else if sp != nil {
		return nil, fmt.Errorf("shardfib: shared mode needs k=%d ≤ λ=%d ≤ %d", f.shardBits, lambda, mergedRootMaxLambda)
	}
	f.windows = shards << uint(max(min(lambda, fib.W)-f.winBits, 0))
	if f.own = sp == nil; f.own {
		f.space = pdag.NewArena(f.windows)
	}
	f.space.Lock()
	defer f.space.Unlock()
	all := make([]int, shards)
	for i, tr := range f.partition(t) {
		d, err := pdag.FromTrieShared(f.space, tr, lambda)
		if err != nil {
			return nil, err
		}
		f.shards[i].idx, f.shards[i].dag, all[i] = i, d, i
	}
	if f.own {
		f.space.Compact()
	}
	f.emit(all)
	return f, nil
}

// partition routes every table entry into the trie of each shard it
// covers. Later duplicates win, matching trie.FromTable.
func (f *FIB) partition(t *fib.Table) []*trie.Trie {
	tries := make([]*trie.Trie, len(f.shards))
	for i := range tries {
		tries[i] = trie.New()
	}
	for _, e := range t.Entries {
		lo, hi := f.covering(e.Addr, e.Len)
		for s := lo; s <= hi; s++ {
			tries[s].Insert(e.Addr, e.Len, e.NextHop)
		}
	}
	return tries
}

// covering reports the inclusive shard range [lo, hi] a prefix
// addr/plen intersects: one shard when plen ≥ k, a 2^(k-plen)-wide
// run when the prefix is shorter than the shard index.
func (f *FIB) covering(addr uint32, plen int) (lo, hi int) {
	lo = int(addr >> f.shift)
	if plen >= f.shardBits {
		return lo, lo
	}
	return lo, lo + 1<<(f.shardBits-plen) - 1
}

// Shards reports the shard count (2^k).
func (f *FIB) Shards() int { return len(f.shards) }

// ShardBits reports k, the number of address bits used as the shard
// index.
func (f *FIB) ShardBits() int { return f.shardBits }

// Lambda reports the leaf-push barrier the shards fold with.
func (f *FIB) Lambda() int { return f.lambda }

// SnapshotsSerialized reports whether every shard currently serves a
// serialized blob. False means at least one shard fell back to an
// unserialized folded-DAG snapshot (barrier beyond the serializable
// range, or a folded region too large for the blob index space) —
// correct but slower, and worth surfacing to an operator.
func (f *FIB) SnapshotsSerialized() bool {
	for i := range f.shards {
		s := f.shards[i].pin()
		serialized := s.blob != nil
		s.unpin()
		if !serialized {
			return false
		}
	}
	return true
}

// ShardOf reports the shard index owning an address.
func (f *FIB) ShardOf(addr uint32) int { return int(addr >> f.shift) }

// pinCombined pins the current merged view, same protocol as
// shard.pin.
func (f *FIB) pinCombined() *combined {
	for {
		c := f.comb.Load()
		c.readers.Add(1)
		if f.comb.Load() == c {
			return c
		}
		c.readers.Add(-1)
		viewPinRetries.Inc()
	}
}

// emit publishes the dirty shards and refreshes the merged view — a
// short merge (2^λ root words plus per-shard slice headers) — or, when
// the space wants a new arena generation first, re-emits every shard
// into that. It returns the number of shards published and the bytes
// written: root windows, plus the arena's growth.
// Called with the space lock held and no shard lock.
func (f *FIB) emit(dirty []int) (int, int64) {
	arena0, bytes := f.arenaResident.Load(), int64(0)
	compact := f.space.NeedsCompact()
	for i := 0; i < len(dirty) && !compact; i++ {
		sh := &f.shards[dirty[i]]
		sh.mu.Lock()
		compact = !sh.publish(f, false)
		bytes += int64(snapshotBytes(sh.cur.Load()))
		sh.mu.Unlock()
	}
	if compact {
		f.space.Compact() // a shared space's owner republishes its other members
		f.Republish()
		f.compactions.Add(1)
	} else {
		f.rebuildCombined()
	}
	if f.own {
		f.arenaResident.Store(int64(f.space.SharedBytes()))
		f.arenaLive.Store(int64(8 * f.space.FoldedInterior()))
	}
	if compact {
		return len(f.shards), int64(f.SizeBytes())
	}
	return len(dirty), bytes + f.arenaResident.Load() - arena0
}

// Republish re-emits every shard into the space's current arena
// generation and refreshes the merged view, without changing any route
// — what each member of a space runs after pdag.Space.Compact so that
// its snapshots move off the retired arenas. The caller holds the
// space lock, which excludes every writer of a member (the shard locks
// are not taken).
func (f *FIB) Republish() {
	f.combMu.Lock()
	f.reclaimCombined()
	f.combMu.Unlock()
	for i := range f.shards {
		f.shards[i].publish(f, true)
	}
	f.rebuildCombined()
}

// reclaim opens a write: it frees the retired merged view, which
// releases its snapshot pins so that the publishes to come can reuse
// the shards' spare buffers, and then the retired arena generation.
func (f *FIB) reclaim() {
	f.combMu.Lock()
	f.reclaimCombined()
	f.combMu.Unlock()
	if f.own && f.space.Retired() {
		f.recycleArena()
	}
}

// recycleArena hands the previous arena generation's array back to the
// space once nothing can read it — the readers == 0 proof of snapshot
// recycling, applied to every snapshot cut from that generation. The
// compaction that retired it republished every shard, so those are the
// shards' spares (never pinned anew: pin's validation fails) or were
// dropped while pinned, which leakGen remembers. Called only as a write
// opens: from Compact to Republish the current snapshots alias the array.
func (f *FIB) recycleArena() {
	old := f.space.Generation() - 1
	if f.leakGen >= old {
		return
	}
	for i := range f.shards {
		if s := f.shards[i].spare; s != nil && s.gen == old && s.readers.Load() != 0 {
			return
		}
	}
	f.space.Recycle()
}

// reclaimCombined moves the retired merged view to the free slot once
// no reader pins it, releasing its snapshot pins. Called with combMu
// held.
func (f *FIB) reclaimCombined() {
	c := f.combSpare
	if c == nil || c.readers.Load() != 0 {
		return
	}
	for i, s := range c.snaps {
		if s != nil {
			s.unpin()
			c.snaps[i] = nil
		}
	}
	f.combSpare = nil
	if f.combFree == nil {
		f.combFree = c
	}
}

// rebuildCombined publishes, under combMu, a fresh merged view of
// every shard's current snapshot, reusing the drained view's buffers
// when one is available. If the previous retired view is still pinned
// when a new one retires, it is dropped to the garbage collector with
// its snapshot pins intact — those pins are leaked deliberately (the
// affected shards allocate one fresh buffer each on their next
// publish); the window is a reader batch, so this is rarely hit.
func (f *FIB) rebuildCombined() {
	f.combMu.Lock()
	defer f.combMu.Unlock()
	c := f.combFree
	f.combFree = nil
	if c == nil {
		c = &combined{}
	}
	ns := len(f.shards)
	if cap(c.snaps) < ns {
		c.snaps = make([]*snapshot, ns)
		c.nodes = make([][]uint32, ns)
	}
	c.snaps = c.snaps[:ns]
	c.nodes = c.nodes[:ns]
	c.shardBits = f.shardBits
	c.shift = f.shift
	merged := f.merged
	for s := range f.shards {
		snap := f.shards[s].pin() // held until the view is reclaimed
		c.snaps[s] = snap
		if snap.blob != nil {
			c.nodes[s] = snap.blob.Nodes
			c.lambda, c.width = snap.blob.Lambda, snap.blob.Width
		} else {
			c.nodes[s] = nil
			merged = false
		}
	}
	c.root = c.root[:0]
	if merged {
		rootLen := 1 << uint(c.lambda)
		if cap(c.root) < rootLen {
			c.root = make([]uint32, rootLen)
		}
		c.root = c.root[:rootLen]
		per := rootLen >> uint(f.shardBits)
		for s := range f.shards {
			lo := s * per
			b := c.snaps[s].blob
			copy(c.root[lo:lo+per], b.Root[lo-b.RootBase:lo-b.RootBase+per])
		}
	}
	old := f.comb.Swap(c)
	if old != nil {
		// Interleaved publishes of different shards can land here with
		// the previous retiree still in the spare slot: reclaim it if
		// it drained (moving its buffers to the free slot for the next
		// rebuild) so its snapshot pins are not leaked; only a spare
		// that is genuinely still pinned is dropped.
		f.reclaimCombined()
		f.combSpare = old
	}
}

// Lookup performs longest prefix match on the owning shard's current
// snapshot. Lock-free: one pinned snapshot load plus the O(W - λ)
// blob walk, safe to call from any number of goroutines concurrently
// with Set/Delete/Reload. Scalar lookups pin per shard rather than
// the merged view so concurrent single-address callers spread their
// reader-count traffic across 2^k cache lines instead of contending
// on one; batches amortize and use the view.
func (f *FIB) Lookup(addr uint32) uint32 {
	sh := &f.shards[addr>>f.shift]
	s := sh.pin()
	label := s.lookup(addr)
	s.unpin()
	return label
}

// LookupBatch resolves a batch of addresses against one consistent
// merged view of every shard.
func (f *FIB) LookupBatch(addrs []uint32) []uint32 {
	out := make([]uint32, len(addrs))
	f.LookupBatchInto(out, addrs)
	return out
}

// LookupBatchInto is LookupBatch writing labels into dst, which must
// be at least len(addrs) long; the allocation-free fast path the
// serving loop uses. The whole batch runs against one pinned merged
// view — two atomic operations per batch, no per-shard or per-address
// snapshot traffic — through the software-pipelined
// pdag.LookupBatchMerged walker. (A counting-sort bucketing pass was
// measured first and lost: grouping cost four extra passes over the
// batch, more than the per-shard dispatch it saved at any shard count
// ≤ 256.) Callers resolving many batches back to back can amortize
// even the per-batch pin with PinView.
func (f *FIB) LookupBatchInto(dst, addrs []uint32) {
	v := f.PinView()
	v.LookupBatchInto(dst, addrs)
	v.Release()
}

// Set inserts or changes the association for prefix addr/plen: a
// one-op ApplyBatch. Each covering shard (exactly one when plen ≥ k)
// is patched in place by the incremental §4.3 update and republished
// with a single atomic view swap. Concurrent lookups are never
// blocked; they read the previous view until the swap.
func (f *FIB) Set(addr uint32, plen int, label uint32) error {
	if label == fib.NoLabel {
		return fmt.Errorf("shardfib: label %d out of range [1,%d]", label, fib.MaxLabel)
	}
	_, err := f.ApplyBatch([]Op{{Addr: addr, Len: plen, Label: label}})
	return err
}

// Delete removes the association for prefix addr/plen from every
// covering shard, reporting whether it was present.
func (f *FIB) Delete(addr uint32, plen int) bool {
	n, _ := f.ApplyBatch([]Op{{Addr: addr, Len: plen, Label: fib.NoLabel}})
	return n > 0
}

// Op is one route-update operation in the engine's own vocabulary:
// set prefix Addr/Len to Label, or withdraw it when Label is
// fib.NoLabel. It is the unit ApplyBatch consumes, deliberately free
// of any feed-format baggage.
type Op struct {
	Addr  uint32
	Len   int
	Label uint32
}

// ApplyBatch applies a batch of updates with one republish per
// *changed shard* and one merged-view rebuild per *batch* — the one
// write path, which the ribd coalescing plane drives with bursts (B
// updates landing in the same shard cost B cheap DAG patches and a
// single emission) and Set/Delete with one op. Ops are validated up
// front (an invalid op fails the whole batch before any shard is
// mutated) and applied in order, so two ops on the same prefix resolve
// to the later one.
//
// No-op updates — a re-announcement of the exact route already
// installed, or a withdrawal of an absent prefix — are detected
// against the shard's control FIB (an O(plen) exact-match walk) and
// skipped before the §4.3 patch machinery runs; a shard whose ops all
// turn out to be no-ops is not republished at all. Real BGP feeds are
// dominated by such redundant churn (a flapping peer re-announcing
// its table), so this is where the coalescing plane's "one DAG
// mutation per changed prefix" promise is enforced against engine
// state, not just within a batch. The returned count is the number of
// updates that actually mutated a shard.
//
// Concurrent lookups are never blocked; as with Set, each shard's
// readers flip to the new routes the moment the final rebuild lands.
func (f *FIB) ApplyBatch(ops []Op) (int, error) {
	for _, op := range ops {
		if op.Len < 0 || op.Len > fib.W {
			return 0, fmt.Errorf("shardfib: prefix length %d out of range [0,%d]", op.Len, fib.W)
		}
		if op.Label > fib.MaxLabel {
			return 0, fmt.Errorf("shardfib: label %d out of range [1,%d]", op.Label, fib.MaxLabel)
		}
	}
	if len(ops) == 0 {
		return 0, nil
	}
	f.space.Lock()
	defer f.space.Unlock()
	f.applyMu.Lock()
	defer f.applyMu.Unlock()
	if f.applyScratch == nil {
		f.applyScratch = make([][]Op, len(f.shards))
	}
	touched := f.applyTouched[:0]
	for _, op := range ops {
		op.Addr &= fib.Mask(op.Len)
		lo, hi := f.covering(op.Addr, op.Len)
		for s := lo; s <= hi; s++ {
			if len(f.applyScratch[s]) == 0 {
				touched = append(touched, s)
			}
			f.applyScratch[s] = append(f.applyScratch[s], op)
		}
	}
	f.applyTouched = touched
	f.reclaim()
	ins := f.ins.Load()
	var start time.Time
	if ins != nil {
		start = time.Now()
	}
	mutated, dirty := 0, touched[:0]
	var firstErr error
	for _, s := range touched {
		sh := &f.shards[s]
		sh.mu.Lock()
		changed := false
		for _, op := range f.applyScratch[s] {
			// Every covering shard holds the same exact-prefix state
			// (partition and every write path touch all of them), so
			// counting a replicated short-prefix op only in its
			// owning shard keeps mutated ≤ len(ops) — one count per
			// logical route change, not per replica.
			owner := int(op.Addr>>f.shift) == s
			if op.Label == fib.NoLabel {
				if sh.dag.Delete(op.Addr, op.Len) {
					changed = true
					if owner {
						mutated++
					}
				}
			} else if sh.dag.Control().Get(op.Addr, op.Len) != op.Label {
				if err := sh.dag.Set(op.Addr, op.Len, op.Label); err != nil {
					// Unreachable after the validation pass; if it
					// ever fires, finish publishing so readers still
					// see a consistent (partially applied) view.
					if firstErr == nil {
						firstErr = err
					}
				} else {
					changed = true
					if owner {
						mutated++
					}
				}
			}
		}
		sh.mu.Unlock()
		f.applyScratch[s] = f.applyScratch[s][:0]
		if changed {
			dirty = append(dirty, s) // in place: dirty trails the read index
		}
	}
	// Publish once every shard is patched: the space then knows how
	// many nodes the whole batch created when it rules on compaction —
	// which republishes every shard, so such a batch's trace event
	// carries Dirty == Shards == 2^k.
	ntouched, npub, pubBytes := len(touched), 0, int64(0)
	if len(dirty) > 0 {
		npub, pubBytes = f.emit(dirty)
		ntouched = max(ntouched, npub)
	}
	if ins != nil {
		d := time.Since(start)
		ins.PublishSeconds.Observe(uint64(d))
		ins.Trace.Record(obs.TraceEvent{
			UnixNs:  start.UnixNano(),
			Kind:    obs.TraceApplyBatch,
			Family:  4,
			Shards:  int32(ntouched),
			Dirty:   int32(npub),
			Ops:     int32(len(ops)),
			Mutated: int32(mutated),
			Bytes:   pubBytes,
			DurUs:   d.Microseconds(),
		})
	}
	return mutated, firstErr
}

// Reload atomically replaces the whole FIB shard by shard from a
// fresh table — the hot-reload path behind fibserve's SIGHUP. Lookups
// proceed throughout; each shard flips to the new table's routes the
// moment its publish lands in the merged view.
func (f *FIB) Reload(t *fib.Table) error {
	ins := f.ins.Load()
	var start time.Time
	if ins != nil {
		start = time.Now()
	}
	f.space.Lock()
	defer f.space.Unlock()
	for i, tr := range f.partition(t) {
		d, err := pdag.FromTrieShared(f.space, tr, f.lambda)
		if err != nil {
			return err
		}
		sh := &f.shards[i]
		sh.mu.Lock()
		old := sh.dag
		sh.dag = d
		sh.mu.Unlock()
		f.reclaim()
		f.emit([]int{i})
		// Return the replaced DAG's folded references to the space so
		// the old table does not pin its subtrees forever.
		old.Release()
	}
	if ins != nil {
		d := time.Since(start)
		ins.PublishSeconds.Observe(uint64(d))
		ins.Trace.Record(obs.TraceEvent{
			UnixNs: start.UnixNano(),
			Kind:   obs.TraceReload,
			Family: 4,
			Shards: int32(len(f.shards)),
			Dirty:  int32(len(f.shards)),
			Bytes:  int64(f.SizeBytes()),
			DurUs:  d.Microseconds(),
		})
	}
	return nil
}

// ModelBytes reports the summed §4.2 model size of the shard DAGs.
// Replicated short prefixes make this slightly larger than the flat
// DAG's — the memory cost of sharding. The folded region is the
// space's (one index across the engine's shards, and across
// co-tenants in shared mode), counted once.
func (f *FIB) ModelBytes() int {
	f.space.Lock()
	defer f.space.Unlock()
	total := 0
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		st := sh.dag.Stats()
		sh.mu.Unlock()
		total += st.ModelBits
		if i > 0 {
			total -= st.FoldedInterior*2*st.PointerBits + st.FoldedLeaves*bits.Len(uint(st.Delta))
		}
	}
	return (total + 7) / 8
}

// SizeBytes reports the resident byte size of the serving form (the
// line-card form actually walked by lookups): every shard's published
// root window, plus — for an engine that owns its arena — the arena's
// node words, garbage included (at most half again the live ones). A
// member of a shared space reports its windows only; the arena is
// counted once, by Space.SharedBytes.
func (f *FIB) SizeBytes() int {
	total := int(f.arenaResident.Load())
	for i := range f.shards {
		s := f.shards[i].pin()
		total += snapshotBytes(s)
		s.unpin()
	}
	return total
}

// Arena reports the bytes of the engine's own arena and root windows —
// resident, and live (what a fresh build of the same table would
// serve from) — and how many times the arena has compacted; zeros for
// an engine without one.
func (f *FIB) Arena() (resident, live int, compactions uint64) {
	if !f.own {
		return 0, 0, 0
	}
	return int(f.arenaResident.Load()) + 4*f.windows, int(f.arenaLive.Load()) + 4*f.windows, f.compactions.Load()
}
