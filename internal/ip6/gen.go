package ip6

import (
	"fmt"
	"math/rand"
)

// SplitFIB generates a synthetic IPv6 FIB by the same iterative random
// prefix splitting as the IPv4 generator, but confined to the global
// unicast space (2000::/3) and biased the way real IPv6 tables are:
// splitting stops preferentially in the /32–/48 band (provider
// allocations and customer sites), with a tail of /64s.
func SplitFIB(rng *rand.Rand, n int, dist []float64) (*Table, error) {
	if n < 1 {
		return nil, fmt.Errorf("ip6: n = %d < 1", n)
	}
	if len(dist) < 1 || len(dist) > int(MaxLabel) {
		return nil, fmt.Errorf("ip6: distribution over %d labels out of range", len(dist))
	}
	type pfx struct {
		addr Addr
		len  int
	}
	base, _, err := ParsePrefix("2000::/3")
	if err != nil {
		return nil, err
	}
	leaves := []pfx{{base, 3}}
	for len(leaves) < n {
		i := rng.Intn(len(leaves))
		p := leaves[i]
		if p.len >= 64 {
			continue // IPv6 FIBs rarely carry beyond /64
		}
		// Bias: prefixes already in the /32–/48 band split less often,
		// concentrating mass there like real allocations do.
		if p.len >= 32 && p.len < 48 && rng.Float64() < 0.35 {
			continue
		}
		leaves[i] = pfx{p.addr, p.len + 1}
		leaves = append(leaves, pfx{p.addr.WithBit(p.len), p.len + 1})
	}
	cum := make([]float64, len(dist))
	acc := 0.0
	for i, p := range dist {
		acc += p
		cum[i] = acc
	}
	cum[len(cum)-1] = 1
	t := New()
	for _, p := range leaves {
		x := rng.Float64()
		label := uint32(len(cum))
		for i, c := range cum {
			if x <= c {
				label = uint32(i) + 1
				break
			}
		}
		if err := t.Add(p.addr, p.len, label); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// DeepFIB6 generates the adversarial deep-chain instance, the IPv6
// analogue of gen.DeepFIB: a default route plus n long routes in the
// /60–/64 band under 2000::/3, with lookup keys drawn on the routes
// themselves. Every lookup must chain from the barrier down to ~64
// bits before the longest match resolves, and with n ≫ 2^λ the chains
// are essentially unshared — the folded region far exceeds cache and
// each step of the dependent walk is a genuine memory access. This is
// the regime a stride-compressed walk is for; split-generated tables
// (SplitFIB) bottom out near depth log2(n) and never exercise it.
func DeepFIB6(rng *rand.Rand, n, keys int) (*Table, []Addr, error) {
	t := New()
	base, _, err := ParsePrefix("2000::/3")
	if err != nil {
		return nil, nil, err
	}
	if err := t.Add(base, 3, 1); err != nil {
		return nil, nil, err
	}
	routes := make([]Addr, 0, n)
	for len(routes) < n {
		plen := 60 + rng.Intn(5)
		m := Mask(plen)
		a := Addr{
			Hi: (0x2000000000000000 | rng.Uint64()>>3) & m.Hi,
			Lo: rng.Uint64() & m.Lo,
		}
		if err := t.Add(a, plen, 2+uint32(rng.Intn(200))); err != nil {
			return nil, nil, err
		}
		routes = append(routes, a)
	}
	out := make([]Addr, keys)
	for i := range out {
		out[i] = routes[rng.Intn(len(routes))]
	}
	return t, out, nil
}

// DeepAddrs draws lookup keys that land inside t's entries: each key
// is a random entry's prefix with the bits below its mask randomized.
// Against a folded DAG these force the walk down to the entry's depth
// before the longest match resolves — the deep-chain workload where
// the dependent-touch count of the serialized format dominates.
func DeepAddrs(rng *rand.Rand, t *Table, count int) []Addr {
	out := make([]Addr, count)
	for i := range out {
		e := t.Entries[rng.Intn(len(t.Entries))]
		m := Mask(e.Len)
		out[i] = Addr{
			Hi: e.Addr.Hi | rng.Uint64()&^m.Hi,
			Lo: e.Addr.Lo | rng.Uint64()&^m.Lo,
		}
	}
	return out
}

// RandomAddrs draws lookup keys from the global unicast space.
func RandomAddrs(rng *rand.Rand, count int) []Addr {
	out := make([]Addr, count)
	for i := range out {
		out[i] = Addr{
			Hi: 0x2000000000000000 | rng.Uint64()>>3,
			Lo: rng.Uint64(),
		}
	}
	return out
}
