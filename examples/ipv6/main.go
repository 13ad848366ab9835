// IPv6: the adaptation §7 defers, implemented. A synthetic global
// unicast table (allocation-shaped prefixes in 2000::/3) is normalized
// over the 128-bit space, measured against the entropy bounds, folded
// into a prefix DAG and transformed with XBW-b — demonstrating that
// the entropy machinery is width-agnostic, with only the key packing
// (two machine words) changing.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"fibcomp/internal/ip6"
	"fibcomp/internal/trie"
)

func main() {
	rng := rand.New(rand.NewSource(11))
	table, err := ip6.SplitFIB(rng, 50000, []float64{0.8, 0.12, 0.05, 0.03})
	if err != nil {
		log.Fatal(err)
	}
	lp := (*trie.Trie)(ip6.FromTable(table)).LeafPush()
	s := lp.LeafStats()
	fmt.Printf("IPv6 FIB: %d prefixes, δ=%d, H0=%.3f\n", table.N(), s.Delta, s.H0)
	fmt.Printf("bounds: I=%.1f KB, E=%.1f KB\n", s.InfoBound/8/1024, s.Entropy/8/1024)

	folded, err := ip6.Build(table, 16)
	if err != nil {
		log.Fatal(err)
	}
	plain, err := ip6.Build(table, 128) // λ=W: plain 128-bit trie
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prefix DAG (λ=16): %.1f KB — plain trie: %.1f KB (%.1f× reduction)\n",
		float64(folded.ModelBytes())/1024, float64(plain.ModelBytes())/1024,
		float64(plain.ModelBytes())/float64(folded.ModelBytes()))

	x, err := ip6.NewXBW(table)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("XBW-b: %.1f KB (%.2f× E)\n",
		float64(x.SizeBits())/8/1024, float64(x.SizeBits())/s.Entropy)

	// Lookups and a live update.
	dst, _ := ip6.ParseAddr("2001:db8:cafe::1")
	fmt.Printf("lookup %v → %d\n", dst, folded.Lookup(dst))
	pfx, plen, _ := ip6.ParsePrefix("2001:db8::/32")
	if err := folded.Set(pfx, plen, 4); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after 2001:db8::/32 → 4: lookup %v → %d\n", dst, folded.Lookup(dst))

	// Verify the folded form against the control trie.
	for i, a := range ip6.RandomAddrs(rng, 50000) {
		if folded.Lookup(a) != folded.Control().Lookup(a) {
			log.Fatalf("divergence at probe %d", i)
		}
	}
	fmt.Println("verified: folded DAG matches control FIB on 50000 probes")
}
