// Package shardfib is the concurrent serving form of the compressed
// FIB: the address space is partitioned by the top k bits into 2^k
// independent prefix-DAG shards, each published through an atomic
// copy-on-write pointer, and every publish refreshes a merged serving
// view — the live slice of each shard's serialized root array
// concatenated into one FIB-wide root — so the read hot path touches
// one array regardless of shard count. Lookups — single or batched —
// are lock-free: they pin the current merged view with one validated
// reference count and walk it, so they scale across cores and are
// never blocked by route churn. Batched lookups are additionally
// software-pipelined (pdag.LookupBatchMerged, ip6.LookupBatchMerged):
// a fetch pass overlaps the root loads of the whole batch, and walks
// that descend below the barrier advance through interleaved lanes
// whose dependent node fetches are in flight concurrently.
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
// All of that is one engine for both families. Its shards are §4.3
// descents (pdag.Descent) over the 128-bit trie.Key, an IPv4 address in
// the top 32 bits, so the partition of a table, the fold, ApplyBatch's
// validate-group-probe-patch-publish loop and Reload are written once,
// over (key, length, label). FIB and FIB6 embed it and add only what
// reads an address of their width: the conversion of their addresses
// to keys, and the hand-specialised walkers behind Lookup and the
// Views.
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

// MaxLambda is the largest barrier an engine serves: a publish copies
// the 2^λ merged root, so past 64 K slots the copy would dominate it.
// The smallest is k — a shard's root window is 2^(λ-k) entries.
const MaxLambda = 16

// shard is one slice of the address space. cur is the published
// immutable snapshot; dag is the writer-owned mutable prefix DAG with
// its control trie, guarded by mu together with the right to publish —
// and by the space lock every writer takes first. spare (same guards)
// is the snapshot retired by the previous publish: once no reader or
// merged view pins it, the next publish serializes into its buffers in
// place, so steady-churn republishing is double-buffered and
// allocation-free. staged is a snapshot serialized but not yet
// published.
type shard struct {
	mu     sync.Mutex
	idx    int // this shard's index — names its root window
	dag    *pdag.Descent
	spare  *snapshot
	staged *snapshot
	cur    atomic.Pointer[snapshot]
}

// snapshot is the frozen serving form of one shard: its root window,
// and the arena's node words as they stood when it was cut. It shares
// no mutable state with the writer DAG.
//
// readers counts the holders of this snapshot — in-flight lookups and
// the merged views referencing its buffers (see pin). The writer
// recycles a retired snapshot's buffers only after observing
// readers == 0, which the pin/validate protocol makes safe: a reader
// that pins a snapshot after it was retired fails validation and
// retries without ever dereferencing the contents.
type snapshot struct {
	blob    *pdag.Blob
	gen     uint64 // arena generation blob.Nodes aliases
	readers atomic.Int64
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

// stage freezes the shard's region without publishing it: it emits
// into the space's arena and writes the shard's root window into the
// snapshot retired two publishes ago when nothing still pins it
// (lookups drain in one batch walk and the merged view's pin is
// released when the view itself is recycled, so under steady churn the
// republish allocates nothing); a pinned spare is left to the garbage
// collector — its arena generation with it, see recycleArena — and a
// fresh buffer allocated. It fails only when the arena generation ran
// out of node indices.
func (sh *shard) stage(e *engine) error {
	next := sh.spare
	var buf *pdag.Blob
	if next != nil && next.readers.Load() == 0 {
		buf = next.blob
	} else {
		if next != nil && next.gen > e.leakGen {
			e.leakGen = next.gen
		}
		next = &snapshot{}
	}
	blob, err := sh.dag.SerializeShared(buf, sh.idx, e.shardBits)
	if err != nil {
		return err
	}
	next.blob, next.gen = blob, e.space.Generation()
	sh.staged = next
	return nil
}

// commit publishes the staged snapshot, retiring the previous one, and
// reports the root-window bytes that went out.
func (sh *shard) commit() int {
	n := 4 * len(sh.staged.blob.Root)
	sh.spare, sh.staged = sh.cur.Swap(sh.staged), nil
	return n
}

// combined is the merged serving view the read paths walk: the live
// 2^(λ-k) root slots of every shard's blob concatenated in shard
// order (root), each shard's folded-region node words (nodes), and the
// backing snapshots (snaps), which the view holds pinned for as long
// as it is reachable so their buffers cannot be recycled under a
// reader.
//
// readers counts in-flight lookups, with the same pin/validate
// recycling protocol as snapshots; recycling a retired view is what
// finally unpins its snapshots.
type combined struct {
	root  []uint32
	nodes [][]uint32
	snaps []*snapshot

	// The walk geometry a pinned View needs to resolve without
	// touching the engine again, frozen per rebuild.
	lambda    int
	width     int
	shardBits int
	shift     uint

	readers atomic.Int64
}

func (c *combined) unpin() { c.readers.Add(-1) }

// engine is what FIB and FIB6 embed: shards and their descents,
// snapshots, the merged view and its double buffer, the arena and its
// generations, the write path, sizes and instruments.
type engine struct {
	family    uint8 // 4 or 6, for trace events and metric labels
	width     int   // the family's address width W, in key bits
	shardBits int   // k
	shift     uint  // the walkers' address >> shift selects the shard: W-k for IPv4, 64-k on Addr.Hi for IPv6
	lambda    int
	shards    []shard

	// space is the hash-cons universe the shard DAGs fold into and
	// whose arena their blobs alias: its own (own, the default), or one
	// a Shared constructor was handed so that near-identical tenant
	// FIBs cost little more than one. Every write takes the space lock
	// first (lock order: space → applyMu → shard.mu → combMu). windows
	// is the root words the shards publish together.
	space   *pdag.Space
	own     bool
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
	applyTouched []int
	applyScratch [][]op

	// ins is the optional telemetry hook (see Instruments); nil costs
	// the write path one pointer load per batch.
	ins atomic.Pointer[Instruments]
}

// op is one route update in the engine's key: set prefix k/plen to
// label, or withdraw it when label is fib.NoLabel. It is Op and Op6 in
// one form, and a table entry when the engine reads a table.
type op struct {
	k     trie.Key
	plen  int
	label uint32
}

// routes is a table or a batch as the engine reads it: n ops, the i-th
// at(i) — the family's entries converted to keys where they lie, so
// reading them copies and allocates nothing.
type routes struct {
	n  int
	at func(i int) op
}

// build sets the engine up for `shards` shards of a width-bit key,
// partitions t into their control tries and folds each, into sp or,
// when that is nil, into an arena of the engine's own, then publishes
// them. A barrier outside [k, MaxLambda] has no merged root to serve
// from and is rejected.
func (e *engine) build(family uint8, width int, sp *pdag.Space, lambda, shards int, t routes) error {
	if shards < 1 || shards > MaxShards || shards&(shards-1) != 0 {
		return fmt.Errorf("shardfib: shard count %d not a power of two in [1,%d]", shards, MaxShards)
	}
	k := bits.TrailingZeros(uint(shards))
	if lambda < k || lambda > MaxLambda {
		return fmt.Errorf("shardfib: barrier λ=%d outside [log2(shards)=%d, %d]", lambda, k, MaxLambda)
	}
	e.family, e.width, e.shardBits, e.shift, e.lambda = family, width, k, uint(min(width, 64)-k), lambda
	e.shards, e.applyScratch = make([]shard, shards), make([][]op, shards)
	for i := range e.shards {
		e.shards[i].idx = i
	}
	e.windows = 1 << uint(lambda)
	if e.space, e.own = sp, sp == nil; e.own {
		e.space = pdag.NewArena(e.windows)
	}
	e.space.Lock()
	defer e.space.Unlock()
	for i, tr := range e.partition(t) {
		d, err := pdag.NewDescent(e.space, tr, width, lambda)
		if err != nil {
			return err
		}
		e.shards[i].dag = d
	}
	// The first publish: an own arena begins its first generation now
	// that the fold has said how large it must be. On error the shards
	// give their nodes back to the space.
	if e.own {
		e.space.Compact()
	}
	all := make([]int, len(e.shards))
	for i := range all {
		all[i] = i
	}
	if _, _, err := e.emit(all); err != nil {
		for i := range e.shards {
			e.shards[i].dag.Release()
		}
		return err
	}
	return nil
}

// partition routes every entry into the control trie of each shard it
// covers. Later duplicates win, matching trie.FromTable.
func (e *engine) partition(t routes) []*trie.Trie {
	tries := make([]*trie.Trie, len(e.shards))
	for i := range tries {
		tries[i] = trie.New()
	}
	for i := 0; i < t.n; i++ {
		r := t.at(i)
		lo, hi := e.covering(e.shardOf(r.k), r.plen)
		for s := lo; s <= hi; s++ {
			tries[s].InsertKey(r.k, r.plen, r.label)
		}
	}
	return tries
}

// shardOf reports the shard index owning a key: its top k bits.
func (e *engine) shardOf(k trie.Key) int { return int(k.Hi >> (64 - uint(e.shardBits))) }

// covering reports the inclusive shard range [lo, hi] a prefix of
// length plen beginning in shard lo intersects: one shard when
// plen ≥ k, a 2^(k-plen)-wide run when the prefix is shorter than the
// shard index.
func (e *engine) covering(lo, plen int) (int, int) {
	if plen >= e.shardBits {
		return lo, lo
	}
	return lo, lo + 1<<(e.shardBits-plen) - 1
}

// Shards reports the shard count (2^k).
func (e *engine) Shards() int { return len(e.shards) }

// ShardBits reports k, the number of address bits used as the shard
// index.
func (e *engine) ShardBits() int { return e.shardBits }

// Lambda reports the leaf-push barrier the shards fold with.
func (e *engine) Lambda() int { return e.lambda }

// pinCombined pins the current merged view, same protocol as
// shard.pin.
func (e *engine) pinCombined() *combined {
	for {
		c := e.comb.Load()
		c.readers.Add(1)
		if e.comb.Load() == c {
			return c
		}
		c.readers.Add(-1)
		viewPinRetries.Inc()
	}
}

// emit publishes the dirty shards and refreshes the merged view — a
// short merge (2^λ root words plus per-shard slice headers) — or, when
// the space wants a new arena generation first or runs out of node
// indices on the way, starts one and re-emits every shard into that.
// Every shard is staged before any is published, so that on error —
// the table does not fit a generation's indices even compacted —
// nothing changed for readers. It returns the number of shards
// published and the bytes written: root windows, plus the arena's
// growth. Called with the space lock held and no shard lock.
func (e *engine) emit(dirty []int) (int, int64, error) {
	arena0, bytes := e.arenaResident.Load(), int64(0)
	compact := e.space.NeedsCompact()
	for i := 0; i < len(dirty) && !compact; i++ {
		sh := &e.shards[dirty[i]]
		sh.mu.Lock()
		compact = sh.stage(e) != nil
		sh.mu.Unlock()
	}
	if compact {
		e.space.Compact() // a shared space's owner republishes its other members
		if err := e.Republish(); err != nil {
			return 0, 0, err
		}
		e.compactions.Add(1)
	} else {
		for _, s := range dirty {
			sh := &e.shards[s]
			sh.mu.Lock()
			bytes += int64(sh.commit())
			sh.mu.Unlock()
		}
		e.rebuildCombined()
	}
	if e.own {
		e.arenaResident.Store(int64(e.space.SharedBytes()))
		e.arenaLive.Store(int64(8 * e.space.FoldedInterior()))
	}
	if compact {
		return len(e.shards), int64(e.SizeBytes()), nil
	}
	return len(dirty), bytes + e.arenaResident.Load() - arena0, nil
}

// Republish re-emits every shard into the space's current arena
// generation and refreshes the merged view, without changing any route
// — what each member of a space runs after pdag.Space.Compact so that
// its snapshots move off the retired arenas. It fails, having
// published nothing, when the shards do not fit the generation's node
// indices. The caller holds the space lock, which excludes every
// writer of a member (the shard locks are not taken).
func (e *engine) Republish() error {
	e.combMu.Lock()
	e.reclaimCombined()
	e.combMu.Unlock()
	for i := range e.shards {
		if err := e.shards[i].stage(e); err != nil {
			return fmt.Errorf("shardfib: IPv%d table does not fit one arena generation, keeping the last published view: %w", e.family, err)
		}
	}
	for i := range e.shards {
		e.shards[i].commit()
	}
	e.rebuildCombined()
	return nil
}

// reclaim opens a write: it frees the retired merged view, which
// releases its snapshot pins so that the publishes to come can reuse
// the shards' spare buffers, and then the retired arena generation.
func (e *engine) reclaim() {
	e.combMu.Lock()
	e.reclaimCombined()
	e.combMu.Unlock()
	if e.own && e.space.Retired() {
		e.recycleArena()
	}
}

// recycleArena hands the previous arena generation's array back to the
// space once nothing can read it — the readers == 0 proof of snapshot
// recycling, applied to every snapshot cut from that generation. The
// compaction that retired it republished every shard, so those are the
// shards' spares (never pinned anew: pin's validation fails) or were
// dropped while pinned, which leakGen remembers — unless the republish
// failed, and a current snapshot, which any reader may pin, is still
// of an older generation. Called only as a write opens: from Compact to
// Republish the current snapshots alias the array.
func (e *engine) recycleArena() {
	gen := e.space.Generation()
	if e.leakGen >= gen-1 {
		return
	}
	for i := range e.shards {
		sh := &e.shards[i]
		if sh.cur.Load().gen != gen {
			return
		}
		if s := sh.spare; s != nil && s.gen == gen-1 && s.readers.Load() != 0 {
			return
		}
	}
	e.space.Recycle()
}

// reclaimCombined moves the retired merged view to the free slot once
// no reader pins it, releasing its snapshot pins. Called with combMu
// held.
func (e *engine) reclaimCombined() {
	c := e.combSpare
	if c == nil || c.readers.Load() != 0 {
		return
	}
	for i, s := range c.snaps {
		if s != nil {
			s.unpin()
			c.snaps[i] = nil
		}
	}
	e.combSpare = nil
	if e.combFree == nil {
		e.combFree = c
	}
}

// rebuildCombined publishes, under combMu, a fresh merged view of
// every shard's current snapshot, reusing the drained view's buffers
// when one is available. If the previous retired view is still pinned
// when a new one retires, it is dropped to the garbage collector with
// its snapshot pins intact — those pins are leaked deliberately (the
// affected shards allocate one fresh buffer each on their next
// publish); the window is a reader batch, so this is rarely hit.
func (e *engine) rebuildCombined() {
	e.combMu.Lock()
	defer e.combMu.Unlock()
	c := e.combFree
	e.combFree = nil
	if c == nil {
		c = &combined{}
	}
	ns := len(e.shards)
	rootLen := 1 << uint(e.lambda)
	if cap(c.snaps) < ns {
		c.snaps = make([]*snapshot, ns)
		c.nodes = make([][]uint32, ns)
		c.root = make([]uint32, rootLen)
	}
	c.snaps, c.nodes, c.root = c.snaps[:ns], c.nodes[:ns], c.root[:rootLen]
	c.shardBits, c.shift, c.lambda = e.shardBits, e.shift, e.lambda
	per := rootLen >> uint(e.shardBits)
	for s := range e.shards {
		snap := e.shards[s].pin() // held until the view is reclaimed
		c.snaps[s], c.nodes[s], c.width = snap, snap.blob.Nodes, snap.blob.Width
		copy(c.root[s*per:(s+1)*per], snap.blob.Root)
	}
	old := e.comb.Swap(c)
	if old != nil {
		// Interleaved publishes of different shards can land here with
		// the previous retiree still in the spare slot: reclaim it if
		// it drained (moving its buffers to the free slot for the next
		// rebuild) so its snapshot pins are not leaked; only a spare
		// that is genuinely still pinned is dropped.
		e.reclaimCombined()
		e.combSpare = old
	}
}

// begin opens a batch's timed span when instruments are installed.
func (e *engine) begin() (ins *Instruments, start time.Time) {
	if ins = e.ins.Load(); ins != nil {
		start = time.Now()
	}
	return ins, start
}

// record closes the span begin opened: one publish observation and one
// trace event, of the engine's family.
func (e *engine) record(ins *Instruments, start time.Time, ev obs.TraceEvent) {
	if ins == nil {
		return
	}
	d := time.Since(start)
	ins.PublishSeconds.Observe(uint64(d))
	ev.UnixNs, ev.Family, ev.DurUs = start.UnixNano(), e.family, d.Microseconds()
	ins.Trace.Record(ev)
}

// apply is ApplyBatch for both families: it applies a batch of updates
// with one republish per *changed shard* and one merged-view rebuild
// per *batch* — the one write path, which the ribd coalescing plane
// drives with bursts (B updates landing in the same shard cost B cheap
// DAG patches and a single emission) and Set/Delete with one op. Ops
// are validated up front against the family's width (an invalid op
// fails the whole batch before any shard is mutated) and applied in
// order, so two ops on the same prefix resolve to the later one.
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
// Concurrent lookups are never blocked; each shard's readers flip to
// the new routes the moment the final rebuild lands. An error after
// validation means the patched table no longer fits one arena
// generation: readers keep the view of before the batch, and the
// routes go out with the next batch that does fit.
func (e *engine) apply(ops routes) (int, error) {
	for i := 0; i < ops.n; i++ {
		o := ops.at(i)
		if o.plen < 0 || o.plen > e.width {
			return 0, fmt.Errorf("shardfib: prefix length %d out of range [0,%d]", o.plen, e.width)
		}
		if o.label > fib.MaxLabel {
			return 0, fmt.Errorf("shardfib: label %d out of range [1,%d]", o.label, fib.MaxLabel)
		}
	}
	if ops.n == 0 {
		return 0, nil
	}
	e.space.Lock()
	defer e.space.Unlock()
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	touched := e.applyTouched[:0]
	for i := 0; i < ops.n; i++ {
		o := ops.at(i)
		o.k = o.k.Masked(o.plen)
		lo, hi := e.covering(e.shardOf(o.k), o.plen)
		for s := lo; s <= hi; s++ {
			if len(e.applyScratch[s]) == 0 {
				touched = append(touched, s)
			}
			e.applyScratch[s] = append(e.applyScratch[s], o)
		}
	}
	e.applyTouched = touched
	e.reclaim()
	ins, start := e.begin()
	mutated, dirty := 0, touched[:0]
	var firstErr error
	for _, s := range touched {
		sh := &e.shards[s]
		sh.mu.Lock()
		d, changed := sh.dag, false
		for _, o := range e.applyScratch[s] {
			if o.label == fib.NoLabel {
				if !d.DeleteKey(o.k, o.plen) {
					continue
				}
			} else if d.Control().GetKey(o.k, o.plen) == o.label {
				continue
			} else if err := d.SetKey(o.k, o.plen, o.label); err != nil {
				// Unreachable after the validation pass; if it ever
				// fires, finish publishing so readers still see a
				// consistent (partially applied) view.
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			changed = true
			// Every covering shard holds the same exact-prefix state
			// (partition and every write path touch all of them), so
			// counting a replicated short-prefix op only in its owning
			// shard keeps mutated ≤ len(ops) — one count per logical
			// route change, not per replica.
			if e.shardOf(o.k) == s {
				mutated++
			}
		}
		sh.mu.Unlock()
		e.applyScratch[s] = e.applyScratch[s][:0]
		if changed {
			dirty = append(dirty, s) // in place: dirty trails the read index
		}
	}
	// Publish once every touched shard is patched: the space then knows
	// how many nodes the whole batch created when it rules on
	// compaction — which republishes every shard, so such a batch's
	// trace event carries Dirty == Shards == 2^k.
	npub, pubBytes := 0, int64(0)
	if len(dirty) > 0 {
		var err error
		if npub, pubBytes, err = e.emit(dirty); firstErr == nil {
			firstErr = err
		}
	}
	e.record(ins, start, obs.TraceEvent{
		Kind:    obs.TraceApplyBatch,
		Shards:  int32(max(len(touched), npub)),
		Dirty:   int32(npub),
		Ops:     int32(ops.n),
		Mutated: int32(mutated),
		Bytes:   pubBytes,
	})
	return mutated, firstErr
}

// set and delete are the one-op batches behind the families' Set and
// Delete.
func (e *engine) set(k trie.Key, plen int, label uint32) error {
	if label == fib.NoLabel {
		return fmt.Errorf("shardfib: label %d out of range [1,%d]", label, fib.MaxLabel)
	}
	_, err := e.apply(routes{1, func(int) op { return op{k, plen, label} }})
	return err
}

func (e *engine) delete(k trie.Key, plen int) bool {
	n, _ := e.apply(routes{1, func(int) op { return op{k: k, plen: plen} }})
	return n > 0
}

// reload atomically replaces the whole table shard by shard — the
// hot-reload path behind fibserve's SIGHUP. Lookups proceed
// throughout; each shard flips to the new table's routes the moment its
// publish lands in the merged view. On error the shards not yet
// reached keep the old table, writer and readers alike.
func (e *engine) reload(t routes) error {
	ins, start := e.begin()
	e.space.Lock()
	defer e.space.Unlock()
	for i, tr := range e.partition(t) {
		d, err := pdag.NewDescent(e.space, tr, e.width, e.lambda)
		if err != nil {
			return err
		}
		if err := e.reloadShard(i, d); err != nil {
			return err
		}
	}
	e.record(ins, start, obs.TraceEvent{
		Kind:   obs.TraceReload,
		Shards: int32(len(e.shards)),
		Dirty:  int32(len(e.shards)),
		Bytes:  int64(e.SizeBytes()),
	})
	return nil
}

// share points each shard's control trie at ref's for the same shard,
// so the two hold every equal subtree once (trie.Share): a co-tenant
// then costs its delta's copied paths. Nothing happens unless ref is a
// member of the same space with as many shards, since the space lock
// is what every reader and writer of either engine's tries holds.
func (e *engine) share(ref *engine) {
	if ref.space != e.space || len(ref.shards) != len(e.shards) {
		return
	}
	e.space.Lock()
	defer e.space.Unlock()
	for i := range e.shards {
		e.shards[i].dag.Control().Share(ref.shards[i].dag.Control())
	}
}

// reloadShard swaps shard i's descent for next and publishes it; on
// error the shard keeps descent and snapshot as they were and next's
// nodes go back to the space. Called under the space lock.
func (e *engine) reloadShard(i int, next *pdag.Descent) error {
	sh := &e.shards[i]
	sh.mu.Lock()
	old := sh.dag
	sh.dag = next
	sh.mu.Unlock()
	e.reclaim()
	if _, _, err := e.emit([]int{i}); err != nil {
		sh.mu.Lock()
		sh.dag = old
		sh.mu.Unlock()
		next.Release()
		return err
	}
	// Return the replaced DAG's folded references to the space so the
	// old table does not pin its subtrees forever.
	old.Release()
	return nil
}

// SizeBytes reports the resident byte size of the serving form (the
// line-card form actually walked by lookups): every shard's published
// root window, plus — for an engine that owns its arena — the arena's
// node words, garbage included (at most half again the live ones). A
// member of a shared space reports its windows only, as if none were
// interned; what the space really holds is counted once, by
// Space.SharedBytes.
func (e *engine) SizeBytes() int {
	return int(e.arenaResident.Load()) + 4*e.windows
}

// Arena reports the bytes of the engine's own arena and root windows —
// resident, and live (what a fresh build of the same table would
// serve from) — and how many times the arena has compacted; zeros for
// an engine without one.
func (e *engine) Arena() (resident, live int, compactions uint64) {
	if !e.own {
		return 0, 0, 0
	}
	return int(e.arenaResident.Load()) + 4*e.windows, int(e.arenaLive.Load()) + 4*e.windows, e.compactions.Load()
}

// FIB is a sharded, concurrently-updatable compressed IPv4 FIB: the
// engine over IPv4 keys, plus the 32-bit walkers.
type FIB struct{ engine }

// Build partitions a FIB table into `shards` prefix DAGs (a power of
// two in [1, MaxShards]) folded with leaf-push barrier lambda ∈
// [log2 shards, MaxLambda], into an arena of the engine's own.
func Build(t *fib.Table, lambda, shards int) (*FIB, error) {
	return BuildShared(nil, t, lambda, shards)
}

// BuildShared builds a FIB whose shard DAGs fold into sp — the
// multi-tenant form: every FIB built into the same space deduplicates
// isomorphic folded subtrees with every other member on both the
// writer side (one hash-cons universe) and the serving side (blobs
// alias the space's shared arenas, and bit-identical root windows are
// interned). Lookups are exactly as in a private FIB; writes take the
// space lock, serializing control-plane churn across tenants
// (data-plane reads are never blocked). A nil space is Build.
func BuildShared(sp *pdag.Space, t *fib.Table, lambda, shards int) (*FIB, error) {
	f := &FIB{}
	if err := f.build(4, fib.W, sp, lambda, shards, table4(t)); err != nil {
		return nil, err
	}
	return f, nil
}

// table4 reads an IPv4 table as the engine's routes.
func table4(t *fib.Table) routes {
	return routes{len(t.Entries), func(i int) op {
		e := &t.Entries[i]
		return op{trie.V4(e.Addr), e.Len, e.NextHop}
	}}
}

// ShardOf reports the shard index owning an address.
func (f *FIB) ShardOf(addr uint32) int { return int(addr >> f.shift) }

// Lookup performs longest prefix match on the owning shard's current
// snapshot. Lock-free: one pinned snapshot load plus the O(W - λ)
// blob walk, safe to call from any number of goroutines concurrently
// with Set/Delete/Reload. Scalar lookups pin per shard rather than
// the merged view so concurrent single-address callers spread their
// reader-count traffic across 2^k cache lines instead of contending
// on one; batches amortize and use the view.
func (f *FIB) Lookup(addr uint32) uint32 {
	s := f.shards[addr>>f.shift].pin()
	label := s.blob.Lookup(addr)
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
	return f.set(trie.V4(addr), plen, label)
}

// Delete removes the association for prefix addr/plen from every
// covering shard, reporting whether it was present.
func (f *FIB) Delete(addr uint32, plen int) bool { return f.delete(trie.V4(addr), plen) }

// Op is one route-update operation in the engine's own vocabulary:
// set prefix Addr/Len to Label, or withdraw it when Label is
// fib.NoLabel. It is the unit ApplyBatch consumes, deliberately free
// of any feed-format baggage.
type Op struct {
	Addr  uint32
	Len   int
	Label uint32
}

// ApplyBatch applies a batch of IPv4 updates: validated all or
// nothing, no-ops squashed against the shards' control FIBs, every
// touched shard patched, then one emission and one merged-view
// rebuild. It returns the number of updates that actually mutated a
// shard. An error after validation means the patched table no longer
// fits one arena generation: readers keep the view of before the
// batch, and the routes go out with the next batch that does fit.
func (f *FIB) ApplyBatch(ops []Op) (int, error) {
	return f.apply(routes{len(ops), func(i int) op {
		o := &ops[i]
		return op{trie.V4(o.Addr), o.Len, o.Label}
	}})
}

// Reload atomically replaces the whole FIB shard by shard from a
// fresh table — the hot-reload path behind fibserve's SIGHUP. Lookups
// proceed throughout; on error the shards not yet reached keep the old
// table, writer and readers alike.
func (f *FIB) Reload(t *fib.Table) error { return f.reload(table4(t)) }

// Share makes the control tries share their equal subtrees with ref's,
// a member of the same space (see vrftab): what a tenant's writer side
// holds beyond ref's is then its delta's paths.
func (f *FIB) Share(ref *FIB) { f.share(&ref.engine) }
