package shardfib

import (
	"fibcomp/internal/ip6"
	"fibcomp/internal/pdag"
)

// View is a pinned reference to the FIB's merged serving view — the
// per-burst read API. A serve loop that handles datagrams in bursts
// pins the view once, resolves every batch in the burst against it,
// and releases it, paying the two reader-count atomics per burst
// instead of per datagram. The pinned view is immutable: lookups
// through it are bit-identical for the lifetime of the pin, even while
// Set/Delete/ApplyBatch publish new snapshots underneath (readers of
// the retired view simply keep it alive until Release).
//
// A View is a single pointer, so storing one in a Lookuper interface
// allocates nothing — the property the serve loop's zero-allocation
// contract depends on. Holders must Release promptly (a burst, not a
// session): a pinned view keeps every shard's retired snapshot
// buffers from being recycled, which turns the engine's 0-alloc
// steady-churn republish into fresh allocations.
type View struct{ c *combined }

// PinView pins the current merged view until Release, using the same
// increment-then-validate protocol as per-batch lookups.
func (f *FIB) PinView() View { return View{f.pinCombined()} }

// Release unpins the view, allowing its backing snapshots to be
// recycled once every holder is done.
func (v View) Release() { v.c.unpin() }

// Lookup resolves one address against the pinned view. The batch path
// is the fast one; this exists so a View satisfies the scalar engine
// contract (and serves the rare single-address wire request).
func (v View) Lookup(addr uint32) uint32 {
	c := v.c
	return c.snaps[addr>>c.shift].blob.Lookup(addr)
}

// LookupBatchInto resolves a batch against the pinned view, writing
// labels into dst (at least len(addrs) long) — FIB.LookupBatchInto
// without the per-call pin traffic.
func (v View) LookupBatchInto(dst, addrs []uint32) {
	c := v.c
	pdag.LookupBatchMerged(dst, addrs, c.root, c.nodes, c.shardBits, c.lambda, c.width)
}

// View6 is the IPv6 twin of View: a pinned reference to the FIB6's
// merged serving view, with the same one-pointer representation and
// the same release-promptly contract.
type View6 struct{ c *combined }

// PinView pins the current merged IPv6 view until Release.
func (f *FIB6) PinView() View6 { return View6{f.pinCombined()} }

// Release unpins the view.
func (v View6) Release() { v.c.unpin() }

// Lookup resolves one IPv6 address against the pinned view.
func (v View6) Lookup(addr ip6.Addr) uint32 {
	c := v.c
	return (*ip6.Blob)(c.snaps[addr.Hi>>c.shift].blob).Lookup(addr)
}

// LookupBatchInto resolves an IPv6 batch against the pinned view —
// FIB6.LookupBatchInto without the per-call pin traffic.
func (v View6) LookupBatchInto(dst []uint32, addrs []ip6.Addr) {
	c := v.c
	ip6.LookupBatchMerged(dst, addrs, c.root, c.nodes, c.shardBits, c.lambda)
}
