package shardfib

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"fibcomp/internal/ip6"
	"fibcomp/internal/obs"
)

// FIB6 is the IPv6 family of the sharded serving engine: the 128-bit
// address space partitioned by the top k bits of Addr.Hi into 2^k
// independent IPv6 prefix-DAG shards, each published as an immutable
// serialized blob (ip6.Blob) behind an atomic pointer, with every
// publish refreshing a merged serving view exactly as the IPv4 engine
// does — the two families share the root-array encoding, the
// pin/validate reader-count protocol and the double-buffered
// zero-allocation republish, and differ only in the address word the
// walks consume. A dual-stack server holds one FIB and one FIB6 and
// dispatches per datagram family; nothing is shared between them, so
// v6 churn never perturbs v4 serving and vice versa.
//
// Sharding on the top bits preserves longest-prefix-match exactly for
// the same reason as IPv4: every prefix of an address shares its top
// bits, so the shard owning the address holds every prefix that can
// match it. Prefixes shorter than k bits are replicated into each
// covering shard.
type FIB6 struct {
	shardBits int  // k
	shift     uint // 64 - k; addr.Hi >> shift selects the shard
	lambda    int
	shards    []shard6

	// space is non-nil for a FIB6 built with Build6Shared: the shards'
	// DAGs fold into a shared IPv6 hash-cons universe, deduplicating
	// isomorphic folded subtrees across tenant tables on the writer
	// side (v6 blobs stay per-tenant; see ip6.Space6). Write paths take
	// the space lock first, mirroring the IPv4 engine's lock order.
	space *ip6.Space6

	comb atomic.Pointer[combined6] // the published merged view

	// combMu guards the merged view's double buffer, same protocol
	// and lock order as the IPv4 engine: shard6.mu before combMu.
	combMu    sync.Mutex
	combSpare *combined6
	combFree  *combined6

	// applyMu serializes ApplyBatch callers over the per-shard
	// grouping scratch.
	applyMu      sync.Mutex
	applyScratch [][]Op6
	applyTouched []int

	// ins is the optional telemetry hook (see Instruments); nil costs
	// the write path one pointer load per batch.
	ins atomic.Pointer[Instruments]
}

// shard6 is one slice of the IPv6 address space, the v6 twin of
// shard: cur is the published immutable snapshot, dag the
// writer-owned mutable prefix DAG guarded by mu, spare the snapshot
// retired by the previous publish whose buffers the next publish
// reuses once no reader pins it.
type shard6 struct {
	mu    sync.Mutex
	dag   *ip6.DAG
	spare *snapshot6
	cur   atomic.Pointer[snapshot6]
}

// snapshot6 is the frozen serving form of one IPv6 shard: the
// serialized blob when the barrier admits one (λ ≤ 24), else a fresh
// fold of the shard's control trie. Exactly one of blob and dag is
// non-nil; the blob's root array feeds the merged view. readers
// follows the same pin/validate protocol as the IPv4 snapshot.
type snapshot6 struct {
	blob    *ip6.Blob
	dag     *ip6.DAG
	readers atomic.Int64
}

func (s *snapshot6) lookup(addr ip6.Addr) uint32 {
	if s.blob != nil {
		return s.blob.Lookup(addr)
	}
	return s.dag.Lookup(addr)
}

func (sh *shard6) pin() *snapshot6 {
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

func (s *snapshot6) unpin() { s.readers.Add(-1) }

// publish freezes the shard's writer DAG and swaps the published
// snapshot, retiring the previous one — the IPv6 instantiation of
// shard.publish, with the serialized blob as the fast path and a
// refold of the control trie as the unserializable-barrier fallback.
func (sh *shard6) publish(lambda int) {
	next := sh.spare
	var buf *ip6.Blob
	if next != nil && next.readers.Load() == 0 {
		buf = next.blob
		next.dag = nil
	} else {
		next = &snapshot6{}
	}
	if blob, err := sh.dag.SerializeInto(buf); err == nil {
		next.blob = blob
		sh.spare = sh.cur.Swap(next)
		return
	}
	if d, err := ip6.FromTrie(sh.dag.Control(), lambda); err == nil {
		next.blob, next.dag = nil, d
		sh.spare = sh.cur.Swap(next)
	}
}

// combined6 is the merged IPv6 serving view: the live 2^(λ-k) root
// slots of every shard's blob concatenated in shard order, each
// shard's folded-region node words, and the pinned backing snapshots.
type combined6 struct {
	root  []uint32
	nodes [][]uint32
	snaps []*snapshot6

	// Walk geometry for pinned View6 readers, frozen per rebuild.
	lambda    int
	shardBits int
	shift     uint

	readers atomic.Int64
}

func (c *combined6) unpin() { c.readers.Add(-1) }

// Build6 partitions an IPv6 table into `shards` prefix DAGs (a power
// of two in [1, MaxShards]) folded with leaf-push barrier lambda; an
// unserializable barrier falls back to folded-DAG snapshots.
func Build6(t *ip6.Table, lambda, shards int) (*FIB6, error) {
	if shards < 1 || shards > MaxShards || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("shardfib: shard count %d not a power of two in [1,%d]", shards, MaxShards)
	}
	f := &FIB6{
		shardBits: bits.TrailingZeros(uint(shards)),
		lambda:    lambda,
		shards:    make([]shard6, shards),
	}
	f.shift = uint(64 - f.shardBits)
	for i, tr := range f.partition(t) {
		d, err := ip6.FromTrie(tr, lambda)
		if err != nil {
			return nil, err
		}
		f.shards[i].dag = d
		f.shards[i].publish(lambda)
	}
	f.combMu.Lock()
	f.rebuildCombined()
	f.combMu.Unlock()
	return f, nil
}

// Build6Shared builds a FIB6 whose shard DAGs fold into sp, the
// multi-tenant IPv6 form: every FIB6 built into the same space
// deduplicates isomorphic folded subtrees with every other member on
// the writer side. Published blobs remain per-tenant (the v6
// serializers' incremental group geometry is per-DAG), so the sharing
// shows up in model bytes, not blob bytes. The barrier must satisfy
// k ≤ λ ≤ 16 so shards serve through the merged root.
func Build6Shared(sp *ip6.Space6, t *ip6.Table, lambda, shards int) (*FIB6, error) {
	if shards < 1 || shards > MaxShards || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("shardfib: shard count %d not a power of two in [1,%d]", shards, MaxShards)
	}
	f := &FIB6{
		shardBits: bits.TrailingZeros(uint(shards)),
		lambda:    lambda,
		shards:    make([]shard6, shards),
		space:     sp,
	}
	if lambda < f.shardBits || lambda > mergedRootMaxLambda {
		return nil, fmt.Errorf("shardfib: shared mode needs k=%d ≤ λ=%d ≤ %d", f.shardBits, lambda, mergedRootMaxLambda)
	}
	f.shift = uint(64 - f.shardBits)
	sp.Lock()
	defer sp.Unlock()
	for i, tr := range f.partition(t) {
		d, err := ip6.FromTrieShared(sp, tr, lambda)
		if err != nil {
			return nil, err
		}
		f.shards[i].dag = d
		f.shards[i].publish(lambda)
	}
	f.combMu.Lock()
	f.rebuildCombined()
	f.combMu.Unlock()
	return f, nil
}

// Shared reports whether the FIB6 folds into a shared hash-cons
// space.
func (f *FIB6) Shared() bool { return f.space != nil }

// partition routes every table entry into the trie of each shard it
// covers. Later duplicates win, matching ip6.FromTable.
func (f *FIB6) partition(t *ip6.Table) []*ip6.Trie {
	tries := make([]*ip6.Trie, len(f.shards))
	for i := range tries {
		tries[i] = ip6.NewTrie()
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
// intersects: one shard when plen ≥ k, a 2^(k-plen)-wide run when the
// prefix is shorter than the shard index.
func (f *FIB6) covering(addr ip6.Addr, plen int) (lo, hi int) {
	lo = int(addr.Hi >> f.shift)
	if plen >= f.shardBits {
		return lo, lo
	}
	return lo, lo + 1<<(f.shardBits-plen) - 1
}

// Shards reports the shard count (2^k).
func (f *FIB6) Shards() int { return len(f.shards) }

// ShardBits reports k.
func (f *FIB6) ShardBits() int { return f.shardBits }

// Lambda reports the leaf-push barrier the shards fold with.
func (f *FIB6) Lambda() int { return f.lambda }

// ShardOf reports the shard index owning an address.
func (f *FIB6) ShardOf(addr ip6.Addr) int { return int(addr.Hi >> f.shift) }

// SnapshotsSerialized reports whether every shard currently serves a
// serialized blob (false: at least one fell back to a folded-DAG
// snapshot).
func (f *FIB6) SnapshotsSerialized() bool {
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

func (f *FIB6) pinCombined() *combined6 {
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

// publishShard refreshes a shard's published snapshot and the merged
// view; called with sh.mu held.
func (f *FIB6) publishShard(sh *shard6) {
	f.combMu.Lock()
	f.reclaimCombined()
	f.combMu.Unlock()
	sh.publish(f.lambda)
	f.combMu.Lock()
	f.rebuildCombined()
	f.combMu.Unlock()
}

// reclaimCombined moves the retired merged view to the free slot once
// no reader pins it, releasing its snapshot pins. Called with combMu
// held.
func (f *FIB6) reclaimCombined() {
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

// rebuildCombined publishes a fresh merged view of every shard's
// current snapshot, reusing the drained view's buffers when one is
// available. Called with combMu held.
func (f *FIB6) rebuildCombined() {
	c := f.combFree
	f.combFree = nil
	if c == nil {
		c = &combined6{}
	}
	ns := len(f.shards)
	if cap(c.snaps) < ns {
		c.snaps = make([]*snapshot6, ns)
		c.nodes = make([][]uint32, ns)
	}
	c.snaps = c.snaps[:ns]
	c.nodes = c.nodes[:ns]
	c.shardBits = f.shardBits
	c.shift = f.shift
	merged := f.shardBits <= f.lambda && f.lambda <= mergedRootMaxLambda
	for s := range f.shards {
		snap := f.shards[s].pin() // held until the view is reclaimed
		c.snaps[s] = snap
		if snap.blob != nil {
			c.nodes[s] = snap.blob.Nodes
			c.lambda = snap.blob.Lambda
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
			copy(c.root[lo:lo+per], c.snaps[s].blob.Root[lo:lo+per])
		}
	}
	old := f.comb.Swap(c)
	if old != nil {
		f.reclaimCombined()
		f.combSpare = old
	}
}

// Lookup performs longest prefix match on the owning shard's current
// snapshot. Lock-free, safe concurrently with Set/Delete/Reload.
func (f *FIB6) Lookup(addr ip6.Addr) uint32 {
	sh := &f.shards[addr.Hi>>f.shift]
	s := sh.pin()
	label := s.lookup(addr)
	s.unpin()
	return label
}

// LookupBatch resolves a batch of addresses against one consistent
// merged view of every shard.
func (f *FIB6) LookupBatch(addrs []ip6.Addr) []uint32 {
	out := make([]uint32, len(addrs))
	f.LookupBatchInto(out, addrs)
	return out
}

// LookupBatchInto is LookupBatch writing labels into dst (at least
// len(addrs) long) — the allocation-free fast path the dual-stack
// serve loop uses, one pinned merged view per batch. Burst callers
// amortize the pin further with PinView.
func (f *FIB6) LookupBatchInto(dst []uint32, addrs []ip6.Addr) {
	v := f.PinView()
	v.LookupBatchInto(dst, addrs)
	v.Release()
}

// Set inserts or changes the association for an IPv6 prefix; each
// covering shard is patched in place and republished, as in the IPv4
// engine.
func (f *FIB6) Set(addr ip6.Addr, plen int, label uint32) error {
	if plen < 0 || plen > ip6.W {
		return fmt.Errorf("shardfib: prefix length %d out of range [0,%d]", plen, ip6.W)
	}
	if label == ip6.NoLabel || label > ip6.MaxLabel {
		return fmt.Errorf("shardfib: label %d out of range [1,%d]", label, ip6.MaxLabel)
	}
	addr = ip6.Canonical(addr, plen)
	if f.space != nil {
		f.space.Lock()
		defer f.space.Unlock()
	}
	lo, hi := f.covering(addr, plen)
	for s := lo; s <= hi; s++ {
		sh := &f.shards[s]
		sh.mu.Lock()
		err := sh.dag.Set(addr, plen, label)
		if err == nil {
			f.publishShard(sh)
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Delete removes the association for an IPv6 prefix from every
// covering shard, reporting whether it was present in any of them.
func (f *FIB6) Delete(addr ip6.Addr, plen int) bool {
	if plen < 0 || plen > ip6.W {
		return false
	}
	addr = ip6.Canonical(addr, plen)
	if f.space != nil {
		f.space.Lock()
		defer f.space.Unlock()
	}
	lo, hi := f.covering(addr, plen)
	present := false
	for s := lo; s <= hi; s++ {
		sh := &f.shards[s]
		sh.mu.Lock()
		if sh.dag.Delete(addr, plen) {
			present = true
			f.publishShard(sh)
		}
		sh.mu.Unlock()
	}
	return present
}

// Op6 is one IPv6 route-update operation: set prefix Addr/Len to
// Label, or withdraw it when Label is ip6.NoLabel.
type Op6 struct {
	Addr  ip6.Addr
	Len   int
	Label uint32
}

// ApplyBatch applies a batch of IPv6 updates with one republish per
// changed shard and one merged-view rebuild per batch — the write
// path the ribd coalescing plane drives for the v6 family, with the
// same no-op squashing against the shard's control FIB and the same
// all-or-nothing up-front validation as the IPv4 ApplyBatch. Returns
// the number of updates that actually mutated a shard.
func (f *FIB6) ApplyBatch(ops []Op6) (int, error) {
	for _, op := range ops {
		if op.Len < 0 || op.Len > ip6.W {
			return 0, fmt.Errorf("shardfib: prefix length %d out of range [0,%d]", op.Len, ip6.W)
		}
		if op.Label > ip6.MaxLabel {
			return 0, fmt.Errorf("shardfib: label %d out of range [1,%d]", op.Label, ip6.MaxLabel)
		}
	}
	if len(ops) == 0 {
		return 0, nil
	}
	if f.space != nil {
		f.space.Lock()
		defer f.space.Unlock()
	}
	f.applyMu.Lock()
	defer f.applyMu.Unlock()
	if f.applyScratch == nil {
		f.applyScratch = make([][]Op6, len(f.shards))
	}
	touched := f.applyTouched[:0]
	for _, op := range ops {
		op.Addr = ip6.Canonical(op.Addr, op.Len)
		lo, hi := f.covering(op.Addr, op.Len)
		for s := lo; s <= hi; s++ {
			if len(f.applyScratch[s]) == 0 {
				touched = append(touched, s)
			}
			f.applyScratch[s] = append(f.applyScratch[s], op)
		}
	}
	f.applyTouched = touched
	f.combMu.Lock()
	f.reclaimCombined()
	f.combMu.Unlock()
	ins := f.ins.Load()
	var start time.Time
	if ins != nil {
		start = time.Now()
	}
	mutated, published := 0, false
	npub, pubBytes := 0, int64(0)
	var firstErr error
	for _, s := range touched {
		sh := &f.shards[s]
		sh.mu.Lock()
		changed := false
		for _, op := range f.applyScratch[s] {
			// Count a replicated short-prefix op only in its owning
			// shard, keeping mutated ≤ len(ops).
			owner := int(op.Addr.Hi>>f.shift) == s
			if op.Label == ip6.NoLabel {
				if sh.dag.Delete(op.Addr, op.Len) {
					changed = true
					if owner {
						mutated++
					}
				}
			} else if sh.dag.Control().Get(op.Addr, op.Len) != op.Label {
				if err := sh.dag.Set(op.Addr, op.Len, op.Label); err != nil {
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
		if changed {
			sh.publish(f.lambda)
			published = true
			npub++
			if ins != nil {
				pubBytes += int64(snapshot6Bytes(sh.cur.Load()))
			}
		}
		sh.mu.Unlock()
		f.applyScratch[s] = f.applyScratch[s][:0]
	}
	if published {
		f.combMu.Lock()
		f.rebuildCombined()
		f.combMu.Unlock()
	}
	if ins != nil {
		d := time.Since(start)
		ins.PublishSeconds.Observe(uint64(d))
		ins.Trace.Record(obs.TraceEvent{
			UnixNs:  start.UnixNano(),
			Kind:    obs.TraceApplyBatch,
			Family:  6,
			Shards:  int32(len(touched)),
			Dirty:   int32(npub),
			Ops:     int32(len(ops)),
			Mutated: int32(mutated),
			Bytes:   pubBytes,
			DurUs:   d.Microseconds(),
		})
	}
	return mutated, firstErr
}

// Reload atomically replaces the whole IPv6 FIB shard by shard from a
// fresh table; lookups proceed throughout.
func (f *FIB6) Reload(t *ip6.Table) error {
	ins := f.ins.Load()
	var start time.Time
	if ins != nil {
		start = time.Now()
	}
	if f.space != nil {
		f.space.Lock()
		defer f.space.Unlock()
	}
	for i, tr := range f.partition(t) {
		var d *ip6.DAG
		var err error
		if f.space != nil {
			d, err = ip6.FromTrieShared(f.space, tr, f.lambda)
		} else {
			d, err = ip6.FromTrie(tr, f.lambda)
		}
		if err != nil {
			return err
		}
		sh := &f.shards[i]
		sh.mu.Lock()
		old := sh.dag
		sh.dag = d
		f.publishShard(sh)
		sh.mu.Unlock()
		if f.space != nil {
			old.Release()
		}
	}
	if ins != nil {
		d := time.Since(start)
		ins.PublishSeconds.Observe(uint64(d))
		ins.Trace.Record(obs.TraceEvent{
			UnixNs: start.UnixNano(),
			Kind:   obs.TraceReload,
			Family: 6,
			Shards: int32(len(f.shards)),
			Dirty:  int32(len(f.shards)),
			Bytes:  int64(f.SizeBytes()),
			DurUs:  d.Microseconds(),
		})
	}
	return nil
}

// ModelBytes reports the summed §4.2 model size of the shard DAGs (in
// shared mode the folded region spans the whole space).
func (f *FIB6) ModelBytes() int {
	if f.space != nil {
		f.space.Lock()
		defer f.space.Unlock()
	}
	total := 0
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		total += sh.dag.ModelBytes()
		sh.mu.Unlock()
	}
	return total
}

// SizeBytes reports the summed byte size of the published serving
// snapshots.
func (f *FIB6) SizeBytes() int {
	total := 0
	for i := range f.shards {
		s := f.shards[i].pin()
		total += snapshot6Bytes(s)
		s.unpin()
	}
	return total
}
