package shardfib

import (
	"fmt"

	"fibcomp/internal/ip6"
	"fibcomp/internal/pdag"
)

// FIB6 is the IPv6 family of the sharded serving engine: the same
// engine as FIB — shards, snapshots, merged view, arena, generations —
// over the 128-bit address space partitioned by the top k bits of
// Addr.Hi, with the 128-bit descent (ip6.DAG) behind its writes and
// the 128-bit walkers (ip6.Blob, ip6.LookupBatchMerged) behind its
// reads. A dual-stack server holds one FIB and one FIB6 and dispatches
// per datagram family; nothing is shared between them, so v6 churn
// never perturbs v4 serving and vice versa.
//
// Sharding on the top bits preserves longest-prefix-match exactly for
// the same reason as IPv4: every prefix of an address shares its top
// bits, so the shard owning the address holds every prefix that can
// match it. Prefixes shorter than k bits are replicated into each
// covering shard.
type FIB6 struct {
	engine
	dags         []*ip6.DAG // the shards' writer DAGs; dags[i].Region is shards[i].region
	applyScratch [][]Op6
}

// Build6 partitions an IPv6 table into `shards` prefix DAGs (a power
// of two in [1, MaxShards]) folded with leaf-push barrier lambda ∈
// [log2 shards, MaxLambda], into an arena of the engine's own.
func Build6(t *ip6.Table, lambda, shards int) (*FIB6, error) {
	return Build6Shared(nil, t, lambda, shards)
}

// Build6Shared builds a FIB6 whose shard DAGs fold into sp, the
// multi-tenant IPv6 form, with everything BuildShared says of IPv4:
// one hash-cons universe, one arena of node words, interned root
// windows — an empty table's shards all publish the one window that
// says "no route". A nil space is Build6.
func Build6Shared(sp *pdag.Space, t *ip6.Table, lambda, shards int) (*FIB6, error) {
	f := &FIB6{}
	if err := f.setup(6, 64, sp, lambda, shards); err != nil {
		return nil, err
	}
	f.dags, f.applyScratch = make([]*ip6.DAG, shards), make([][]Op6, shards)
	f.space.Lock()
	defer f.space.Unlock()
	for i, tr := range f.partition(t) {
		d, err := ip6.FromTrieShared(f.space, tr, lambda)
		if err != nil {
			return nil, err
		}
		f.dags[i], f.shards[i].region = d, &d.Region
	}
	if err := f.start(); err != nil {
		return nil, err
	}
	return f, nil
}

// partition routes every table entry into the trie of each shard it
// covers. Later duplicates win, matching ip6.FromTable.
func (f *FIB6) partition(t *ip6.Table) []*ip6.Trie {
	tries := make([]*ip6.Trie, len(f.shards))
	for i := range tries {
		tries[i] = ip6.NewTrie()
	}
	for _, e := range t.Entries {
		lo, hi := f.covering(f.ShardOf(e.Addr), e.Len)
		for s := lo; s <= hi; s++ {
			tries[s].Insert(e.Addr, e.Len, e.NextHop)
		}
	}
	return tries
}

// ShardOf reports the shard index owning an address.
func (f *FIB6) ShardOf(addr ip6.Addr) int { return int(addr.Hi >> f.shift) }

// Lookup performs longest prefix match on the owning shard's current
// snapshot. Lock-free, safe concurrently with Set/Delete/Reload.
func (f *FIB6) Lookup(addr ip6.Addr) uint32 {
	s := f.shards[addr.Hi>>f.shift].pin()
	label := (*ip6.Blob)(s.blob).Lookup(addr)
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

// Set inserts or changes the association for an IPv6 prefix: a one-op
// ApplyBatch, as in the IPv4 engine.
func (f *FIB6) Set(addr ip6.Addr, plen int, label uint32) error {
	if label == ip6.NoLabel {
		return fmt.Errorf("shardfib: label %d out of range [1,%d]", label, ip6.MaxLabel)
	}
	_, err := f.ApplyBatch([]Op6{{Addr: addr, Len: plen, Label: label}})
	return err
}

// Delete removes the association for an IPv6 prefix from every
// covering shard, reporting whether it was present.
func (f *FIB6) Delete(addr ip6.Addr, plen int) bool {
	n, _ := f.ApplyBatch([]Op6{{Addr: addr, Len: plen, Label: ip6.NoLabel}})
	return n > 0
}

// Op6 is one IPv6 route-update operation: set prefix Addr/Len to
// Label, or withdraw it when Label is ip6.NoLabel.
type Op6 struct {
	Addr  ip6.Addr
	Len   int
	Label uint32
}

// ApplyBatch applies a batch of IPv6 updates — FIB.ApplyBatch over the
// 128-bit descent: all-or-nothing validation up front, no-op squashing
// against the shard's control FIB, every touched shard patched, then
// one emission and one merged-view rebuild. Returns the number of
// updates that actually mutated a shard.
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
	f.space.Lock()
	defer f.space.Unlock()
	f.applyMu.Lock()
	defer f.applyMu.Unlock()
	touched := f.applyTouched[:0]
	for _, op := range ops {
		op.Addr = ip6.Canonical(op.Addr, op.Len)
		lo, hi := f.covering(f.ShardOf(op.Addr), op.Len)
		for s := lo; s <= hi; s++ {
			if len(f.applyScratch[s]) == 0 {
				touched = append(touched, s)
			}
			f.applyScratch[s] = append(f.applyScratch[s], op)
		}
	}
	f.applyTouched = touched
	f.reclaim()
	ins, start := f.begin()
	mutated, dirty := 0, touched[:0]
	var firstErr error
	for _, s := range touched {
		sh, d := &f.shards[s], f.dags[s]
		sh.mu.Lock()
		changed := false
		for _, op := range f.applyScratch[s] {
			// Count a replicated short-prefix op only in its owning
			// shard, keeping mutated ≤ len(ops).
			owner := f.ShardOf(op.Addr) == s
			if op.Label == ip6.NoLabel {
				if d.Delete(op.Addr, op.Len) {
					changed = true
					if owner {
						mutated++
					}
				}
			} else if d.Control().Get(op.Addr, op.Len) != op.Label {
				if err := d.Set(op.Addr, op.Len, op.Label); err != nil {
					// Unreachable after the validation pass.
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
	if err := f.publishBatch(ins, start, len(ops), len(touched), dirty, mutated); firstErr == nil {
		firstErr = err
	}
	return mutated, firstErr
}

// Reload atomically replaces the whole IPv6 FIB shard by shard from a
// fresh table; lookups proceed throughout.
func (f *FIB6) Reload(t *ip6.Table) error {
	ins, start := f.begin()
	f.space.Lock()
	defer f.space.Unlock()
	for i, tr := range f.partition(t) {
		d, err := ip6.FromTrieShared(f.space, tr, f.lambda)
		if err != nil {
			return err
		}
		if err := f.reloadShard(i, &d.Region); err != nil {
			return err
		}
		f.dags[i] = d
	}
	f.recordReload(ins, start)
	return nil
}
