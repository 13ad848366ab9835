package vrftab

import (
	"math/rand"
	"sync"
	"testing"

	"fibcomp/internal/fib"
	"fibcomp/internal/ip6"
	"fibcomp/internal/shardfib"
)

// tenantTable builds a near-identical VRF table: a common base of
// shared routes (same for every tenant) plus delta tenant-specific
// routes.
func tenantTable(t *testing.T, tenant, base, delta int) *fib.Table {
	t.Helper()
	tb := &fib.Table{}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < base; i++ {
		plen := 8 + rng.Intn(17)
		addr := rng.Uint32() &^ (1<<uint(32-plen) - 1)
		if err := tb.Add(addr, plen, uint32(1+rng.Intn(200))); err != nil {
			t.Fatal(err)
		}
	}
	drng := rand.New(rand.NewSource(int64(9000 + tenant)))
	for i := 0; i < delta; i++ {
		plen := 16 + drng.Intn(9)
		addr := drng.Uint32() &^ (1<<uint(32-plen) - 1)
		if err := tb.Add(addr, plen, uint32(1+drng.Intn(200))); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func tenantTable6(t *testing.T, tenant, base, delta int) *ip6.Table {
	t.Helper()
	tb := ip6.New()
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < base; i++ {
		plen := 16 + rng.Intn(33)
		a := ip6.Addr{Hi: rng.Uint64(), Lo: rng.Uint64()}
		if err := tb.Add(ip6.Canonical(a, plen), plen, uint32(1+rng.Intn(200))); err != nil {
			t.Fatal(err)
		}
	}
	drng := rand.New(rand.NewSource(int64(70000 + tenant)))
	for i := 0; i < delta; i++ {
		plen := 24 + drng.Intn(25)
		a := ip6.Addr{Hi: drng.Uint64(), Lo: drng.Uint64()}
		if err := tb.Add(ip6.Canonical(a, plen), plen, uint32(1+drng.Intn(200))); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func sweep4(n int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	addrs := make([]uint32, n)
	for i := range addrs {
		addrs[i] = rng.Uint32()
	}
	return addrs
}

func sweep6(n int, seed int64) []ip6.Addr {
	rng := rand.New(rand.NewSource(seed))
	addrs := make([]ip6.Addr, n)
	for i := range addrs {
		addrs[i] = ip6.Addr{Hi: rng.Uint64(), Lo: rng.Uint64()}
	}
	return addrs
}

// TestRegistryEquivalenceAndIsolation checks every tenant answers
// exactly like a privately built engine over the same table — which
// is both correctness and cross-tenant isolation, since the tenants'
// tables deliberately disagree on their delta prefixes.
func TestRegistryEquivalenceAndIsolation(t *testing.T) {
	const tenants = 8
	r := New(11, 12, 4)
	addrs := sweep4(4096, 1)
	addrs6 := sweep6(2048, 2)
	type refpair struct {
		v4 *shardfib.FIB
		v6 *shardfib.FIB6
	}
	refs := make(map[uint16]refpair)
	for id := uint16(1); id <= tenants; id++ {
		t4 := tenantTable(t, int(id), 400, 12)
		t6 := tenantTable6(t, int(id), 200, 8)
		if _, err := r.Add(id, t4, t6); err != nil {
			t.Fatal(err)
		}
		p4, err := shardfib.Build(t4, 11, 4)
		if err != nil {
			t.Fatal(err)
		}
		p6, err := shardfib.Build6(t6, 12, 4)
		if err != nil {
			t.Fatal(err)
		}
		refs[id] = refpair{p4, p6}
	}
	if r.Len() != tenants {
		t.Fatalf("Len=%d", r.Len())
	}
	for id := uint16(1); id <= tenants; id++ {
		f4, f6, ok := r.Resolve(id)
		if !ok {
			t.Fatalf("tenant %d missing", id)
		}
		want4 := refs[id].v4.LookupBatch(addrs)
		got4 := f4.LookupBatch(addrs)
		for i := range addrs {
			if got4[i] != want4[i] {
				t.Fatalf("tenant %d v4 addr %08x: %d != %d", id, addrs[i], got4[i], want4[i])
			}
			if got := f4.Lookup(addrs[i]); got != want4[i] {
				t.Fatalf("tenant %d v4 scalar %08x: %d != %d", id, addrs[i], got, want4[i])
			}
		}
		want6 := refs[id].v6.LookupBatch(addrs6)
		got6 := f6.LookupBatch(addrs6)
		for i := range addrs6 {
			if got6[i] != want6[i] {
				t.Fatalf("tenant %d v6 addr %v: %d != %d", id, addrs6[i], got6[i], want6[i])
			}
		}
	}
	if _, _, ok := r.Resolve(999); ok {
		t.Fatal("resolved a nonexistent tenant")
	}
}

// TestSharedCollapse is the headline memory bar, per family: the
// resident blob bytes of many near-identical tenants must stay under 3×
// a single tenant's, where independent engines would cost ~tenants× —
// and a family no tenant has a route in costs one interned root window,
// not one per shard per tenant.
func TestSharedCollapse(t *testing.T) {
	// 16 shards keep the per-shard root windows fine-grained (512 B at
	// λ = 11, 1 KB at λ6 = 12), so a tenant's few delta routes leave
	// most windows bit-identical to its co-tenants' — those intern to
	// zero bytes. The base must be large enough that node words dominate
	// the root floor, as in any real table.
	const tenants, base, delta = 64, 6000, 4
	const window4, window6 = 4 << (11 - 4), 4 << (12 - 4) // bytes of one shard's root window
	single4, err := shardfib.Build(tenantTable(t, 0, base, delta), 11, 16)
	if err != nil {
		t.Fatal(err)
	}
	single6, err := shardfib.Build6(tenantTable6(t, 0, base, delta), 12, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name   string
		single int // a private engine of one tenant's table
		empty  int // the other family, empty in every tenant
		t4     func(id int) *fib.Table
		t6     func(id int) *ip6.Table
	}{
		{"v4", single4.SizeBytes(), window6, func(id int) *fib.Table { return tenantTable(t, id, base, delta) }, func(int) *ip6.Table { return nil }},
		{"v6", single6.SizeBytes(), window4, func(int) *fib.Table { return nil }, func(id int) *ip6.Table { return tenantTable6(t, id, base, delta) }},
		{"empty", 0, window4 + window6, func(int) *fib.Table { return nil }, func(int) *ip6.Table { return nil }},
	} {
		t.Run(row.name, func(t *testing.T) {
			r := New(11, 12, 16)
			for id := 1; id <= tenants; id++ {
				if _, err := r.Add(uint16(id), row.t4(id), row.t6(id)); err != nil {
					t.Fatal(err)
				}
			}
			shared := r.SharedBytes() - row.empty
			if row.single == 0 {
				if shared != 0 {
					t.Fatalf("%d tenants without a route hold %d bytes beyond one window per family", tenants, shared)
				}
				return
			}
			if shared <= 0 {
				t.Fatal("SharedBytes counts nothing of the published tenants")
			}
			if shared >= 3*row.single {
				t.Fatalf("%d near-identical tenants cost %d bytes, ≥ 3× single tenant (%d)", tenants, shared, row.single)
			}
			if v4, v6 := r.FoldedInterior(); v4+v6 == 0 {
				t.Fatal("no folded interior nodes in the shared spaces")
			}
		})
	}
}

// TestRegistryChurnIsolation drives updates into one tenant and
// checks a co-tenant's answers never move — isolation under the §4.3
// incremental update path with shared folding underneath.
func TestRegistryChurnIsolation(t *testing.T) {
	r := New(11, 12, 2)
	tA := tenantTable(t, 1, 300, 5)
	if _, err := r.Add(1, tA, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add(2, tenantTable(t, 2, 300, 5), nil); err != nil {
		t.Fatal(err)
	}
	fA, _, _ := r.Resolve(1)
	fB, _, _ := r.Resolve(2)
	addrs := sweep4(2048, 3)
	before := fB.LookupBatch(addrs)

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		plen := 10 + rng.Intn(15)
		addr := rng.Uint32() &^ (1<<uint(32-plen) - 1)
		if err := fA.Set(addr, plen, uint32(1+rng.Intn(200))); err != nil {
			t.Fatal(err)
		}
	}
	ops := make([]shardfib.Op, 0, 100)
	for i := 0; i < 100; i++ {
		plen := 12 + rng.Intn(13)
		addr := rng.Uint32() &^ (1<<uint(32-plen) - 1)
		ops = append(ops, shardfib.Op{Addr: addr, Len: plen, Label: uint32(1 + rng.Intn(200))})
	}
	if _, err := fA.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	after := fB.LookupBatch(addrs)
	for i := range addrs {
		if before[i] != after[i] {
			t.Fatalf("tenant 2 moved at %08x after tenant 1 churn: %d -> %d", addrs[i], before[i], after[i])
		}
	}
}

// TestRegistryZeroAllocLookups pins the serving-path contract: batch
// lookups through a resolved tenant allocate nothing.
func TestRegistryZeroAllocLookups(t *testing.T) {
	r := New(11, 12, 4)
	if _, err := r.Add(7, tenantTable(t, 7, 400, 10), tenantTable6(t, 7, 150, 5)); err != nil {
		t.Fatal(err)
	}
	addrs := sweep4(512, 9)
	dst := make([]uint32, len(addrs))
	addrs6 := sweep6(256, 10)
	dst6 := make([]uint32, len(addrs6))
	if n := testing.AllocsPerRun(50, func() {
		f4, f6, ok := r.Resolve(7)
		if !ok {
			t.Fatal("tenant missing")
		}
		f4.LookupBatchInto(dst, addrs)
		f6.LookupBatchInto(dst6, addrs6)
	}); n != 0 {
		t.Fatalf("resolve+batch lookups allocate %.1f/op", n)
	}
}

// TestRegistryReloadRemoveCompact exercises the admin lifecycle:
// per-tenant reload, removal, and arena compaction, with lookups
// checked against fresh private references at each step.
func TestRegistryReloadRemoveCompact(t *testing.T) {
	r := New(11, 12, 2)
	addrs := sweep4(2048, 5)
	for id := uint16(1); id <= 4; id++ {
		if _, err := r.Add(id, tenantTable(t, int(id), 250, 6), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Reload tenant 2 with a different table.
	nt := tenantTable(t, 42, 250, 20)
	if err := r.Reload(2, nt, nil); err != nil {
		t.Fatal(err)
	}
	ref, err := shardfib.Build(nt, 11, 2)
	if err != nil {
		t.Fatal(err)
	}
	f2, _, _ := r.Resolve(2)
	want := ref.LookupBatch(addrs)
	got := f2.LookupBatch(addrs)
	for i := range addrs {
		if got[i] != want[i] {
			t.Fatalf("post-reload tenant 2 at %08x: %d != %d", addrs[i], got[i], want[i])
		}
	}
	// Remove tenant 3; the rest keep serving.
	if !r.Remove(3) {
		t.Fatal("Remove(3) = false")
	}
	if r.Remove(3) {
		t.Fatal("second Remove(3) = true")
	}
	if _, _, ok := r.Resolve(3); ok {
		t.Fatal("removed tenant still resolves")
	}
	// Compact and verify every surviving tenant still answers right.
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint16{1, 2, 4} {
		f, _, ok := r.Resolve(id)
		if !ok {
			t.Fatalf("tenant %d missing post-compact", id)
		}
		var reftab *fib.Table
		if id == 2 {
			reftab = nt
		} else {
			reftab = tenantTable(t, int(id), 250, 6)
		}
		rf, err := shardfib.Build(reftab, 11, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := rf.LookupBatch(addrs)
		got := f.LookupBatch(addrs)
		for i := range addrs {
			if got[i] != want[i] {
				t.Fatalf("post-compact tenant %d at %08x: %d != %d", id, addrs[i], got[i], want[i])
			}
		}
	}
	if _, err := r.Add(3, tenantTable(t, 3, 250, 6), nil); err != nil {
		t.Fatalf("re-adding removed id: %v", err)
	}
}

// TestRegistryConcurrentChurn hammers lookups on every tenant while
// writers churn them all — the race-detector workout for the shared
// space's locking.
func TestRegistryConcurrentChurn(t *testing.T) {
	const tenants = 4
	r := New(11, 12, 2)
	for id := uint16(1); id <= tenants; id++ {
		if _, err := r.Add(id, tenantTable(t, int(id), 200, 5), tenantTable6(t, int(id), 80, 3)); err != nil {
			t.Fatal(err)
		}
	}
	addrs := sweep4(256, 21)
	addrs6 := sweep6(128, 22)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for id := uint16(1); id <= tenants; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]uint32, len(addrs))
			dst6 := make([]uint32, len(addrs6))
			for {
				select {
				case <-stop:
					return
				default:
				}
				f4, f6, ok := r.Resolve(id)
				if !ok {
					t.Error("tenant vanished")
					return
				}
				f4.LookupBatchInto(dst, addrs)
				f6.LookupBatchInto(dst6, addrs6)
			}
		}()
	}
	var wwg sync.WaitGroup
	for id := uint16(1); id <= tenants; id++ {
		id := id
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			f4, f6, _ := r.Resolve(id)
			for i := 0; i < 150; i++ {
				plen := 10 + rng.Intn(15)
				addr := rng.Uint32() &^ (1<<uint(32-plen) - 1)
				if err := f4.Set(addr, plen, uint32(1+rng.Intn(200))); err != nil {
					t.Error(err)
					return
				}
				plen6 := 20 + rng.Intn(20)
				a6 := ip6.Canonical(ip6.Addr{Hi: rng.Uint64(), Lo: rng.Uint64()}, plen6)
				if err := f6.Set(a6, plen6, uint32(1+rng.Intn(200))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wwg.Wait()
	close(stop)
	wg.Wait()
}
