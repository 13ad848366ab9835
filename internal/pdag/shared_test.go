package pdag

import (
	"math/rand"
	"testing"

	"fibcomp/internal/fib"
	"fibcomp/internal/trie"
)

// tenantTrie builds a base table of shared routes plus delta
// tenant-specific routes derived from the tenant id, modelling the
// near-identical VRF tables the shared space exists for.
func tenantTrie(t *testing.T, tenant, base, delta int) *trie.Trie {
	t.Helper()
	tr := trie.New()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < base; i++ {
		plen := 8 + rng.Intn(17)
		addr := rng.Uint32() &^ (1<<uint(32-plen) - 1)
		tr.Insert(addr, plen, uint32(1+rng.Intn(200)))
	}
	drng := rand.New(rand.NewSource(int64(1000 + tenant)))
	for i := 0; i < delta; i++ {
		plen := 16 + drng.Intn(9)
		addr := drng.Uint32() &^ (1<<uint(32-plen) - 1)
		tr.Insert(addr, plen, uint32(1+drng.Intn(200)))
	}
	return tr
}

func sweepAddrs(n int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	addrs := make([]uint32, n)
	for i := range addrs {
		addrs[i] = rng.Uint32()
	}
	return addrs
}

// TestSharedSerializeEquivalence checks that shared-arena blobs answer
// exactly like private blobs of the same tables, across several
// tenants folded into one space — and that the window/RootBase
// mechanics hold for a sharded emission.
func TestSharedSerializeEquivalence(t *testing.T) {
	// Both kinds of space: interned windows, and windows written into
	// the blob's own buffer.
	testSharedSerializeEquivalence(t, NewSpace())
	testSharedSerializeEquivalence(t, NewArena(1<<12))
}

func testSharedSerializeEquivalence(t *testing.T, sp *Space) {
	const lambda, tenants = 12, 4
	addrs := sweepAddrs(4096, 7)
	sp.Lock()
	defer sp.Unlock()
	for tn := 0; tn < tenants; tn++ {
		tr := tenantTrie(t, tn, 300, 10)
		d, err := FromTrieShared(sp, tr, lambda)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := FromTrie(tr, lambda)
		if err != nil {
			t.Fatal(err)
		}
		refBlob, err := ref.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		// Full-window emission.
		blob, err := d.SerializeShared(nil, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if blob.RootBase != 0 || len(blob.Root) != 1<<lambda {
			t.Fatalf("tenant %d: full window got base=%d len=%d", tn, blob.RootBase, len(blob.Root))
		}
		for _, a := range addrs {
			if got, want := blob.Lookup(a), refBlob.Lookup(a); got != want {
				t.Fatalf("tenant %d addr %08x: shared=%d private=%d", tn, a, got, want)
			}
		}
		// Batch path must agree through the RootBase-aware fallback.
		got := blob.LookupBatch(addrs)
		want := refBlob.LookupBatch(addrs)
		for i := range addrs {
			if got[i] != want[i] {
				t.Fatalf("tenant %d batch addr %08x: shared=%d private=%d", tn, addrs[i], got[i], want[i])
			}
		}
		// Sharded windows: each of 2^k windows must agree on the
		// addresses it owns.
		const k = 2
		for s := 0; s < 1<<k; s++ {
			wb, err := d.SerializeShared(nil, s, k)
			if err != nil {
				t.Fatal(err)
			}
			if wb.RootBase != s<<(lambda-k) {
				t.Fatalf("tenant %d shard %d: RootBase=%d", tn, s, wb.RootBase)
			}
			for _, a := range addrs {
				if int(a>>uint(32-k)) != s {
					continue
				}
				if got, want := wb.Lookup(a), refBlob.Lookup(a); got != want {
					t.Fatalf("tenant %d shard %d addr %08x: %d != %d", tn, s, a, got, want)
				}
			}
		}
		// A member's stamps belong to the space's arena: the private
		// emitter, which compacts the space first, must refuse it.
		if _, err := d.Serialize(); err == nil {
			t.Fatalf("tenant %d: Serialize on a shared-space member succeeded", tn)
		}
	}
}

// TestSharedArenaDedup checks the headline economics: an identical
// second tenant adds zero arena bytes, and near-identical tenants add
// only their delta.
func TestSharedArenaDedup(t *testing.T) {
	const lambda = 12
	sp := NewSpace()
	sp.Lock()
	defer sp.Unlock()

	tr := tenantTrie(t, 0, 400, 0)
	d0, err := FromTrieShared(sp, tr, lambda)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d0.SerializeShared(nil, 0, 0); err != nil {
		t.Fatal(err)
	}
	after1 := sp.SharedBytes()
	if after1 == 0 {
		t.Fatal("empty arena after first publish")
	}

	// Bit-identical tenant: same routes, so every folded node and the
	// root window itself are already in the arenas.
	d1, err := FromTrieShared(sp, tenantTrie(t, 0, 400, 0), lambda)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := d1.SerializeShared(nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.SharedBytes(); got != after1 {
		t.Fatalf("identical tenant grew arena: %d -> %d bytes", after1, got)
	}
	if b1.Lookup(0x0a000001) != d0.Lookup(0x0a000001) {
		t.Fatal("identical tenants disagree")
	}

	// Near-identical tenant: growth must be well under a second full
	// table.
	d2, err := FromTrieShared(sp, tenantTrie(t, 2, 400, 8), lambda)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.SerializeShared(nil, 0, 0); err != nil {
		t.Fatal(err)
	}
	growth := sp.SharedBytes() - after1
	if growth >= after1 {
		t.Fatalf("near-identical tenant grew arena by %d bytes (full table is %d)", growth, after1)
	}
}

// TestSharedInterleavedUpdates interleaves updates and republishes
// across tenants of one space — the access pattern that a per-DAG
// epoch counter corrupts via stamp collisions on shared nodes.
func TestSharedInterleavedUpdates(t *testing.T) {
	const lambda, tenants, rounds = 11, 3, 6
	sp := NewSpace()
	sp.Lock()
	defer sp.Unlock()
	addrs := sweepAddrs(2048, 99)

	dags := make([]*DAG, tenants)
	refs := make([]*trie.Trie, tenants)
	for tn := range dags {
		refs[tn] = tenantTrie(t, tn, 250, 5)
		d, err := FromTrieShared(sp, refs[tn], lambda)
		if err != nil {
			t.Fatal(err)
		}
		dags[tn] = d
	}
	rng := rand.New(rand.NewSource(5))
	for r := 0; r < rounds; r++ {
		for tn, d := range dags {
			plen := 12 + rng.Intn(13)
			addr := rng.Uint32() &^ (1<<uint(32-plen) - 1)
			label := uint32(1 + rng.Intn(200))
			if err := d.Set(addr, plen, label); err != nil {
				t.Fatal(err)
			}
			refs[tn].Insert(addr, plen, label)
			blob, err := d.SerializeShared(nil, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := FromTrie(refs[tn], lambda)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := ref.Serialize()
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range addrs {
				if got, want := blob.Lookup(a), rb.Lookup(a); got != want {
					t.Fatalf("round %d tenant %d addr %08x: %d != %d", r, tn, a, got, want)
				}
			}
		}
	}
}

// TestSharedReleaseAndCompact checks that releasing one tenant leaves
// the others intact, and that Compact + republish serves correctly
// while blobs published before the compaction keep answering from the
// retired arenas.
func TestSharedReleaseAndCompact(t *testing.T) {
	const lambda = 12
	sp := NewSpace()
	sp.Lock()
	defer sp.Unlock()
	addrs := sweepAddrs(2048, 3)

	trA := tenantTrie(t, 0, 300, 6)
	trB := tenantTrie(t, 1, 300, 6)
	dA, err := FromTrieShared(sp, trA, lambda)
	if err != nil {
		t.Fatal(err)
	}
	dB, err := FromTrieShared(sp, trB, lambda)
	if err != nil {
		t.Fatal(err)
	}
	oldBlob, err := dA.SerializeShared(nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dB.SerializeShared(nil, 0, 0); err != nil {
		t.Fatal(err)
	}
	oldWant := make([]uint32, len(addrs))
	for i, a := range addrs {
		oldWant[i] = oldBlob.Lookup(a)
	}

	dB.Release()
	if err := dA.Set(0x0a000000, 8, 7); err != nil {
		t.Fatal(err)
	}
	trA.Insert(0x0a000000, 8, 7)

	sp.Compact()
	newBlob, err := dA.SerializeShared(nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := FromTrie(trA, lambda)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := ref.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		if got, want := newBlob.Lookup(a), rb.Lookup(a); got != want {
			t.Fatalf("post-compact addr %08x: %d != %d", a, got, want)
		}
		// The pre-compact blob must still answer from the retired
		// arena exactly as it did before.
		if got := oldBlob.Lookup(a); got != oldWant[i] {
			t.Fatalf("retired blob changed under compaction at %08x: %d != %d", a, got, oldWant[i])
		}
	}
}

// TestArenaGenerations walks one engine-owned arena through its life:
// emissions append only what the updates created, NeedsCompact ends the
// generation before the arena passes 1.5 × live, Compact sizes the next
// one so that it never grows, and the array Recycle hands back is the
// one the generation after next emits into.
func TestArenaGenerations(t *testing.T) {
	const lambda, windows = 11, 1 << 11
	sp := NewArena(windows)
	sp.Lock()
	defer sp.Unlock()
	tr := tenantTrie(t, 0, 2000, 0)
	d, err := FromTrieShared(sp, tr, lambda)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	addrs := sweepAddrs(2048, 12)
	var blob *Blob
	var arrays []*uint32 // first word of each generation's array
	emit := func() {
		t.Helper()
		if blob, err = d.SerializeShared(blob, 0, 0); err != nil {
			t.Fatal(err)
		}
		for _, a := range addrs {
			if got, want := blob.Lookup(a), tr.Lookup(a); got != want {
				t.Fatalf("generation %d addr %08x: blob %d, trie %d", sp.Generation(), a, got, want)
			}
		}
	}
	sp.Compact()
	emit()
	if live := 8 * sp.FoldedInterior(); sp.SharedBytes() != live {
		t.Fatalf("a fresh generation holds %d B for %d B live", sp.SharedBytes(), live)
	}
	arrays = append(arrays, &sp.words[0])
	// A stationary churn: a pool of routes flapping, so the table
	// keeps its size while the arena fills with dead paths.
	pool := make([]fib.Entry, 200)
	for i := range pool {
		plen := 12 + rng.Intn(21)
		pool[i] = fib.Entry{Addr: rng.Uint32() & fib.Mask(plen), Len: plen, NextHop: uint32(1 + rng.Intn(8))}
	}
	for sp.Generation() < 5 {
		for i := 0; i < 40; i++ {
			e := pool[rng.Intn(len(pool))]
			if tr.Get(e.Addr, e.Len) == fib.NoLabel {
				if err := d.Set(e.Addr, e.Len, e.NextHop); err != nil {
					t.Fatal(err)
				}
				tr.Insert(e.Addr, e.Len, e.NextHop)
			} else {
				d.Delete(e.Addr, e.Len)
				tr.Delete(e.Addr, e.Len)
			}
		}
		if sp.NeedsCompact() {
			if sp.Retired() {
				sp.Recycle() // nothing reads the blob of two generations ago
			}
			if &sp.words[0] != arrays[len(arrays)-1] {
				t.Fatalf("generation %d outgrew the array Compact sized for it (%d words)", sp.Generation(), len(sp.words))
			}
			sp.Compact()
			blob = nil // the retired blob keeps its window; a fresh one for the new generation
			emit()
			arrays = append(arrays, &sp.words[0])
			continue
		}
		before := len(sp.words)
		emit()
		if grew := len(sp.words) - before; grew > 2*40*(fib.W-lambda+1) {
			t.Fatalf("40 updates appended %d words: more than the paths they rewrote", grew)
		}
		if 4*(len(sp.words)+windows) > 6*(2*sp.FoldedInterior()+windows) {
			t.Fatalf("arena %d words past 1.5 × live (%d interiors) without NeedsCompact", len(sp.words), sp.FoldedInterior())
		}
	}
	// Generations alternate between two arrays once both exist.
	for g := 2; g < len(arrays); g++ {
		if arrays[g] != arrays[g-2] {
			t.Fatalf("generation %d did not reuse the array of generation %d", g+1, g-1)
		}
	}
}

// TestArenaIndexExhaustion: running out of node indices fails the
// emission without publishing anything, latches until Compact — the
// nodes stamped on the way have no words behind them — and the next
// generation serves the same table.
func TestArenaIndexExhaustion(t *testing.T) {
	const lambda = 11
	for _, sp := range []*Space{NewSpace(), NewArena(1 << lambda)} {
		sp.Lock()
		tr := tenantTrie(t, 0, 2000, 0)
		d, err := FromTrieShared(sp, tr, lambda)
		if err != nil {
			t.Fatal(err)
		}
		restore := SetArenaIndexLimit(uint32(sp.FoldedInterior() + 100))
		blob, err := d.SerializeShared(nil, 0, 0)
		if err != nil || sp.NeedsCompact() {
			t.Fatalf("the table itself must fit: %v", err)
		}
		// Flap one route: the table stays the size it is while every
		// emission appends the path the flap rewrote.
		for n := 0; err == nil; n++ {
			if n > 200 {
				t.Fatal("never ran out of indices")
			}
			if n&1 == 0 {
				if err := d.Set(0x0a0b0c00, 24, 9); err != nil {
					t.Fatal(err)
				}
				tr.Insert(0x0a0b0c00, 24, 9)
			} else {
				d.Delete(0x0a0b0c00, 24)
				tr.Delete(0x0a0b0c00, 24)
			}
			_, err = d.SerializeShared(nil, 0, 0)
		}
		if !sp.NeedsCompact() {
			t.Fatalf("exhaustion (%v) did not ask for a compaction", err)
		}
		if _, err := d.SerializeShared(nil, 0, 0); err == nil {
			t.Fatal("an emission succeeded into an exhausted generation")
		}
		sp.Compact()
		if blob, err = d.SerializeShared(blob, 0, 0); err != nil || sp.NeedsCompact() {
			t.Fatalf("emission into the new generation: %v", err)
		}
		for _, a := range sweepAddrs(2048, 14) {
			if got, want := blob.Lookup(a), tr.Lookup(a); got != want {
				t.Fatalf("addr %08x: blob %d, trie %d", a, got, want)
			}
		}
		restore()
		sp.Unlock()
	}
}
