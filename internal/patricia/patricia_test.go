package patricia

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fibcomp/internal/fib"
	"fibcomp/internal/trie"
)

func randomTable(rng *rand.Rand, n, delta int, withDefault bool) *fib.Table {
	t := fib.New()
	if withDefault {
		t.Add(0, 0, uint32(rng.Intn(delta))+1)
	}
	for i := 0; i < n; i++ {
		plen := rng.Intn(25) + 8
		t.Add(rng.Uint32()&fib.Mask(plen), plen, uint32(rng.Intn(delta))+1)
	}
	t.Dedup()
	return t
}

func TestLookupEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		tb := randomTable(rng, 400, 6, trial%2 == 0)
		ref := trie.FromTable(tb)
		p := Build(tb)
		for probe := 0; probe < 3000; probe++ {
			addr := rng.Uint32()
			if got, want := p.Lookup(addr), ref.Lookup(addr); got != want {
				t.Fatalf("trial %d: lookup %x = %d want %d", trial, addr, got, want)
			}
		}
	}
}

func TestQuickEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tb := randomTable(rng, 800, 4, true)
	ref := trie.FromTable(tb)
	p := Build(tb)
	f := func(addr uint32) bool { return p.Lookup(addr) == ref.Lookup(addr) }
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// trieNodes reports the nodes of a plain-trie subtree.
func trieNodes(n *trie.Node) int {
	if n == nil {
		return 0
	}
	return 1 + trieNodes(n.Left) + trieNodes(n.Right)
}

func TestPathCompressionBound(t *testing.T) {
	// Path compression keeps the node count linear in the prefix
	// count, unlike the plain trie whose chains scale with W.
	rng := rand.New(rand.NewSource(3))
	tb := randomTable(rng, 2000, 4, true)
	p := Build(tb)
	if p.Nodes() > 2*tb.N()+1 {
		t.Fatalf("%d nodes for %d prefixes: not path-compressed", p.Nodes(), tb.N())
	}
	plain := trieNodes(trie.FromTable(tb).Root)
	if p.Nodes() >= plain {
		t.Fatalf("patricia %d nodes should undercut the plain trie's %d", p.Nodes(), plain)
	}
}

func TestModelBytes(t *testing.T) {
	tb := fib.MustParse("0.0.0.0/0 1", "10.0.0.0/8 2")
	p := Build(tb)
	if p.ModelBytes() != p.Nodes()*NodeBytes {
		t.Fatal("model bytes")
	}
	// §6: "This representation consumes a massive 24 bytes per node" —
	// at FIB scale that is ~24 B/prefix, far above the 2–4.5 B/prefix
	// of modern schemes and the <1 B/prefix of the compressors.
	rng := rand.New(rand.NewSource(4))
	big := randomTable(rng, 10000, 4, true)
	bp := Build(big)
	perPrefix := float64(bp.ModelBytes()) / float64(big.N())
	if perPrefix < 12 || perPrefix > 50 {
		t.Fatalf("%.1f bytes/prefix outside the BSD-era band", perPrefix)
	}
}

func TestHostAndDeepRoutes(t *testing.T) {
	tb := fib.MustParse(
		"0.0.0.0/0 1",
		"10.0.0.1/32 2",
		"10.0.0.0/31 3",
		"10.0.0.2/32 4",
	)
	ref := trie.FromTable(tb)
	p := Build(tb)
	for _, s := range []string{"10.0.0.0", "10.0.0.1", "10.0.0.2", "10.0.0.3", "11.0.0.0"} {
		addr, _ := fib.ParseAddr(s)
		if p.Lookup(addr) != ref.Lookup(addr) {
			t.Fatalf("mismatch at %s", s)
		}
	}
}

func TestStepsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tb := randomTable(rng, 1000, 4, true)
	p := Build(tb)
	for probe := 0; probe < 1000; probe++ {
		label, steps := p.LookupSteps(rng.Uint32())
		if steps > fib.W+1 {
			t.Fatalf("%d steps", steps)
		}
		if label != p.Lookup(rng.Uint32()) {
			// Different addresses — only checking the instrumented
			// variant agrees with itself on the same input:
		}
	}
	addr := rng.Uint32()
	l1 := p.Lookup(addr)
	l2, _ := p.LookupSteps(addr)
	if l1 != l2 {
		t.Fatal("instrumented lookup disagrees")
	}
}

func TestEmpty(t *testing.T) {
	p := Build(fib.New())
	if p.Lookup(123) != fib.NoLabel {
		t.Fatal("empty table should have no routes")
	}
}
