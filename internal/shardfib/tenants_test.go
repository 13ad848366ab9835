package shardfib_test

import (
	"math/rand"
	"runtime"
	"testing"

	"fibcomp/internal/fib"
	"fibcomp/internal/ip6"
	"fibcomp/internal/trie"
	"fibcomp/internal/vrftab"
)

// nearTable is a tenant's IPv4 table: one common base of random routes
// plus delta private ones drawn from the tenant's own seed.
func nearTable(tenant, base, delta int) *fib.Table {
	t := fib.New()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < base+delta; i++ {
		if i == base {
			rng = rand.New(rand.NewSource(int64(1000 + tenant)))
		}
		plen := 8 + rng.Intn(17)
		t.Add(rng.Uint32()&fib.Mask(plen), plen, uint32(1+rng.Intn(200)))
	}
	return t
}

// nearTable6 is nearTable for IPv6, prefixes of 16 to 48 bits.
func nearTable6(tenant, base, delta int) *ip6.Table {
	t := ip6.New()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < base+delta; i++ {
		if i == base {
			rng = rand.New(rand.NewSource(int64(2000 + tenant)))
		}
		plen := 16 + rng.Intn(33)
		t.Add(ip6.Canonical(ip6.Addr{Hi: rng.Uint64(), Lo: rng.Uint64()}, plen), plen, uint32(1+rng.Intn(200)))
	}
	return t
}

// controlNodes counts the distinct control-trie nodes the tenants'
// engines reach, one visited set per family: what their writer side
// holds together, however the tries share.
func controlNodes(tenants []*vrftab.Tenant) (v4, v6 int) {
	seen4, seen6 := map[*trie.Node]bool{}, map[*trie.Node]bool{}
	var walk func(seen map[*trie.Node]bool, n *trie.Node) int
	walk = func(seen map[*trie.Node]bool, n *trie.Node) int {
		if n == nil || seen[n] {
			return 0
		}
		seen[n] = true
		return 1 + walk(seen, n.Left) + walk(seen, n.Right)
	}
	for _, tn := range tenants {
		for _, root := range tn.V4.ControlRoots() {
			v4 += walk(seen4, root)
		}
		for _, root := range tn.V6.ControlRoots() {
			v6 += walk(seen6, root)
		}
	}
	return v4, v6
}

// heapInuse is the live heap after a collection.
func heapInuse() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

// TestTenantsShareControlTries is the writer-side memory guard, in the
// shape of vrftab's TestSharedCollapse: 64 near-identical tenants hold
// at most 1.1 × one tenant's distinct control-trie nodes plus the paths
// their private routes copied (W nodes each), per family — also after
// every tenant is reloaded, which rebuilds its tries and shares them
// again — and their live heap is at most 10 × one tenant's, where
// private control tries cost ~tenants×.
func TestTenantsShareControlTries(t *testing.T) {
	const tenants, base, base6, delta = 64, 6000, 2000, 4
	build := func(n int) *vrftab.Registry {
		r := vrftab.New(11, 12, 16)
		for id := 1; id <= n; id++ {
			if _, err := r.Add(uint16(id), nearTable(id, base, delta), nearTable6(id, base6, delta)); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	h0 := heapInuse()
	one := build(1)
	h1 := heapInuse()
	one4, one6 := controlNodes(one.Tenants())
	runtime.KeepAlive(one)
	one = nil
	h2 := heapInuse()
	all := build(tenants)
	h3 := heapInuse()
	if d1, d64 := int64(h1)-int64(h0), int64(h3)-int64(h2); d64 > 10*d1 {
		t.Errorf("%d tenants' live heap grew %d B, > 10 × one tenant's %d B", tenants, d64, d1)
	} else {
		t.Logf("live heap: one tenant %d B, %d tenants %d B (%.1f×)", d1, tenants, d64, float64(d64)/float64(d1))
	}
	check := func(when string) {
		v4, v6 := controlNodes(all.Tenants())
		for _, fam := range []struct {
			name          string
			got, one, max int
		}{
			{"v4", v4, one4, 11*one4/10 + tenants*delta*fib.W},
			{"v6", v6, one6, 11*one6/10 + tenants*delta*ip6.W},
		} {
			if fam.got > fam.max {
				t.Errorf("%s: %d tenants hold %d distinct %s control nodes, one holds %d: bound %d", when, tenants, fam.got, fam.name, fam.one, fam.max)
			}
			t.Logf("%s: %s %d distinct control nodes for %d tenants, %d for one", when, fam.name, fam.got, tenants, fam.one)
		}
	}
	check("built")
	for id := 1; id <= tenants; id++ {
		if err := all.Reload(uint16(id), nearTable(id, base, delta), nearTable6(id, base6, delta)); err != nil {
			t.Fatal(err)
		}
	}
	check("reloaded")
}
