package shardfib

import (
	"fibcomp/internal/ip6"
	"fibcomp/internal/pdag"
	"fibcomp/internal/trie"
)

// FIB6 is the IPv6 family of the sharded serving engine: the same
// engine as FIB — shards, descents, snapshots, merged view, arena,
// generations, write path — over 128-bit keys partitioned by the top k
// bits of Addr.Hi, with the 128-bit walkers (ip6.Blob,
// ip6.LookupBatchMerged) behind its reads. A dual-stack server holds
// one FIB and one FIB6 and dispatches per datagram family; nothing is
// shared between them, so v6 churn never perturbs v4 serving and vice
// versa.
//
// Sharding on the top bits preserves longest-prefix-match exactly for
// the same reason as IPv4: every prefix of an address shares its top
// bits, so the shard owning the address holds every prefix that can
// match it. Prefixes shorter than k bits are replicated into each
// covering shard.
type FIB6 struct{ engine }

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
	if err := f.build(6, ip6.W, sp, lambda, shards, table6(t)); err != nil {
		return nil, err
	}
	return f, nil
}

// table6 reads an IPv6 table as the engine's routes.
func table6(t *ip6.Table) routes {
	return routes{len(t.Entries), func(i int) op {
		e := &t.Entries[i]
		return op{trie.Key(e.Addr), e.Len, e.NextHop}
	}}
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
	return f.set(trie.Key(addr), plen, label)
}

// Delete removes the association for an IPv6 prefix from every
// covering shard, reporting whether it was present.
func (f *FIB6) Delete(addr ip6.Addr, plen int) bool { return f.delete(trie.Key(addr), plen) }

// Op6 is one IPv6 route-update operation: set prefix Addr/Len to
// Label, or withdraw it when Label is ip6.NoLabel.
type Op6 struct {
	Addr  ip6.Addr
	Len   int
	Label uint32
}

// ApplyBatch applies a batch of IPv6 updates — FIB.ApplyBatch, with
// prefix lengths validated against 128 bits. Returns the number of
// updates that actually mutated a shard.
func (f *FIB6) ApplyBatch(ops []Op6) (int, error) {
	return f.apply(routes{len(ops), func(i int) op {
		o := &ops[i]
		return op{trie.Key(o.Addr), o.Len, o.Label}
	}})
}

// Reload atomically replaces the whole IPv6 FIB shard by shard from a
// fresh table; lookups proceed throughout.
func (f *FIB6) Reload(t *ip6.Table) error { return f.reload(table6(t)) }

// Share is FIB.Share for the IPv6 engine.
func (f *FIB6) Share(ref *FIB6) { f.share(&ref.engine) }
