// Compressionstudy: how does FIB compressibility scale with next-hop
// entropy? This example sweeps the Bernoulli parameter of Fig 6 over
// a 40K-prefix FIB and prints entropy E, XBW-b and prefix-DAG sizes
// and the compression efficiency ν — reproducing the paper's central
// observation that both compressors track the entropy bound, with the
// DAG a small constant factor above it that spikes only at extreme
// skew.
package main

import (
	"fmt"
	"log"
	"math/rand"

	fibcomp "fibcomp"
	"fibcomp/internal/bounds"
	"fibcomp/internal/gen"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	base, err := gen.SplitFIB(rng, 40000, []float64{0.5, 0.5})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%7s %7s %9s %9s %9s %7s %9s %9s %9s\n",
		"p", "H0", "E[KB]", "XBW[KB]", "pDAG[KB]", "ν", "Thm2[KB]", "Blob[KB]", "BlobV2[KB]")
	for _, p := range []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5} {
		t := gen.Relabel(rng, base, gen.Bernoulli(1-p))
		m := fibcomp.Metrics(t)

		x, err := fibcomp.CompressXBW(t)
		if err != nil {
			log.Fatal(err)
		}
		d, err := fibcomp.Compress(t, fibcomp.DefaultBarrier)
		if err != nil {
			log.Fatal(err)
		}
		// The serialized line-card forms: the §5.3 blob against its
		// stride-compressed successor, same DAG, same barrier.
		blob, err := d.Serialize()
		if err != nil {
			log.Fatal(err)
		}
		strided, err := d.SerializeV2()
		if err != nil {
			log.Fatal(err)
		}
		dagBits := float64(d.ModelBytes()) * 8
		thm2 := bounds.Theorem2Bits(m.Leaves, m.H0, 2)
		fmt.Printf("%7.3f %7.3f %9.1f %9.1f %9.1f %7.2f %9.1f %9.1f %9.1f\n",
			p, m.H0,
			m.Entropy/8/1024,
			float64(x.SizeBits())/8/1024,
			dagBits/8/1024,
			dagBits/m.Entropy,
			thm2/8/1024,
			float64(blob.SizeBytes())/1024,
			float64(strided.SizeBytes())/1024)
	}
	fmt.Println("\nν stays a small constant except at extreme skew — no space-time")
	fmt.Println("trade-off: lookups remain plain O(W) trie walks at every point.")
	fmt.Println("BlobV2 quarters the dependent-touch chain while staying within")
	fmt.Println("~10% of Blob's size either way: stride folding saves words where")
	fmt.Println("paths are sparse, and cedes a little where v1's finer-grained")
	fmt.Println("bit-level sharing wins.")
}
