package pdag

import (
	"math/rand"
	"testing"

	"fibcomp/internal/fib"
	"fibcomp/internal/trie"
)

// countTrie reports the nodes of a control subtree.
func countTrie(n *trie.Node) int {
	if n == nil {
		return 0
	}
	return 1 + countTrie(n.Left) + countTrie(n.Right)
}

// checkInvariants verifies the DAG's internal consistency:
//   - reference counts equal the number of parent edges (plus the
//     root's own reference when the barrier is 0),
//   - every folded interior is registered in the sub-trie index under
//     its children's key, every folded leaf under its label,
//   - the structure is in normal form: no interior has two identical
//     coalesced-leaf children,
//   - the tables contain no unreachable nodes.
func checkInvariants(t *testing.T, d *DAG) {
	t.Helper()
	refs := map[*Node]int32{}
	seen := map[*Node]bool{}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if n.kind != kindUp {
			refs[n]++
			if seen[n] {
				return
			}
			seen[n] = true
			if n.kind == kindInt {
				if got, ok := d.sub[[2]uint64{n.Left.id, n.Right.id}]; !ok || got != n {
					t.Fatalf("interior node %d not canonically registered", n.id)
				}
				if n.Left == n.Right && n.Left.kind == kindLeaf {
					t.Fatalf("normal form violated: node %d has twin leaf children", n.id)
				}
			} else {
				if got, ok := d.leaves[n.Label]; !ok || got != n {
					t.Fatalf("leaf %d not in leaf table", n.Label)
				}
			}
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(d.root)
	for n, want := range refs {
		if n.ref != want {
			t.Fatalf("node id=%d kind=%d label=%d: ref=%d, want %d",
				n.id, n.kind, n.Label, n.ref, want)
		}
	}
	reach := 0
	for _, n := range d.sub {
		if !seen[n] {
			t.Fatalf("unreachable interior node %d in sub-trie index", n.id)
		}
		reach++
	}
	for _, n := range d.leaves {
		if !seen[n] {
			t.Fatalf("unreachable leaf %d in leaf table", n.Label)
		}
	}
	_ = reach
}

func sampleFIB() *fib.Table {
	return fib.MustParse(
		"0.0.0.0/0 2",
		"0.0.0.0/1 3",
		"0.0.0.0/2 3",
		"32.0.0.0/3 2",
		"64.0.0.0/2 2",
		"96.0.0.0/3 1",
	)
}

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

var testLambdas = []int{0, 1, 2, 5, 8, 11, 16, 32}

func TestLookupEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, lambda := range testLambdas {
		for trial := 0; trial < 3; trial++ {
			tb := randomTable(rng, 300, 6, trial%2 == 0)
			tr := trie.FromTable(tb)
			d, err := Build(tb, lambda)
			if err != nil {
				t.Fatal(err)
			}
			checkInvariants(t, d)
			for probe := 0; probe < 2000; probe++ {
				addr := rng.Uint32()
				if got, want := d.Lookup(addr), tr.Lookup(addr); got != want {
					t.Fatalf("λ=%d trial=%d: lookup %x = %d want %d", lambda, trial, addr, got, want)
				}
			}
		}
	}
}

func TestLambda32IsPlainTrie(t *testing.T) {
	// λ=W reproduces "good old prefix trees": nothing is folded.
	tb := sampleFIB()
	d, err := Build(tb, 32)
	if err != nil {
		t.Fatal(err)
	}
	if d.FoldedInterior() != 0 || d.FoldedLeaves() != 0 {
		t.Fatalf("λ=32 should have no folded nodes, got %d/%d",
			d.FoldedInterior(), d.FoldedLeaves())
	}
	if n := countTrie(trie.FromTable(tb).Root); d.UpNodes() != n {
		t.Fatalf("λ=32 up nodes %d != trie nodes %d", d.UpNodes(), n)
	}
}

func TestFoldingSharesSubTries(t *testing.T) {
	// Two identical labeled sub-tries under different 2-bit prefixes
	// must be merged into one (Definition 1).
	tb := fib.New()
	// Identical pattern below 00/2 and 10/2.
	for _, base := range []uint32{0x00000000, 0x80000000} {
		tb.Add(base|0x00000000, 4, 1) // xx00
		tb.Add(base|0x10000000, 4, 2) // xx01
		tb.Add(base|0x20000000, 3, 3) // xx1
	}
	d, err := Build(tb, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, d)
	// A fresh leaf-push of either sub-trie has 2 interior nodes below
	// the barrier; sharing means the DAG holds them only once.
	if d.FoldedInterior() != 2 {
		t.Fatalf("folded interior = %d, want 2 (shared)", d.FoldedInterior())
	}
	// Both barrier children must literally be the same node.
	l := d.root.Left.Left  // 00
	r := d.root.Right.Left // 10
	if l == nil || l != r {
		t.Fatal("identical sub-tries were not merged into one DAG node")
	}
}

func TestDagSmallerThanLeafPushedTrie(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tb := randomTable(rng, 5000, 3, true)
	lp := trie.FromTable(tb).LeafPush()
	d, err := Build(tb, 8)
	if err != nil {
		t.Fatal(err)
	}
	s := lp.LeafStats()
	lpInterior := s.Nodes - s.Leaves
	if d.FoldedInterior()+d.UpNodes() >= lpInterior {
		t.Fatalf("DAG (%d+%d nodes) should be smaller than leaf-pushed trie (%d interior)",
			d.UpNodes(), d.FoldedInterior(), lpInterior)
	}
}

func TestEmptyRegionsAndDefaults(t *testing.T) {
	// ⊥-leaf semantics: a folded ∅ leaf must not override a label
	// inherited from above the barrier (the l(lp(⊥)) ← ∅ fix of §4.1).
	tb := fib.New()
	tb.Add(0, 1, 7)          // 0/1 → 7, above λ=2
	tb.Add(0x20000000, 3, 4) // 001/3 → 4, below the barrier
	d, err := Build(tb, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, d)
	// 000... has no entry below the barrier; must inherit 7.
	if got := d.Lookup(0x00000000); got != 7 {
		t.Fatalf("000 lookup = %d, want inherited 7", got)
	}
	if got := d.Lookup(0x20000000); got != 4 {
		t.Fatalf("001 lookup = %d, want 4", got)
	}
	// 1xx has no route at all.
	if got := d.Lookup(0xC0000000); got != fib.NoLabel {
		t.Fatalf("11x lookup = %d, want no route", got)
	}
}

func TestEmptyFIB(t *testing.T) {
	for _, lambda := range []int{0, 4, 32} {
		d, err := Build(fib.New(), lambda)
		if err != nil {
			t.Fatal(err)
		}
		if d.Lookup(0x12345678) != fib.NoLabel {
			t.Fatalf("λ=%d: empty FIB should have no routes", lambda)
		}
		checkInvariants(t, d)
	}
}

func TestSerializeLookupEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, lambda := range []int{0, 1, 5, 11, 16} {
		tb := randomTable(rng, 500, 8, true)
		tr := trie.FromTable(tb)
		d, err := Build(tb, lambda)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := d.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 3000; probe++ {
			addr := rng.Uint32()
			want := tr.Lookup(addr)
			if got := blob.Lookup(addr); got != want {
				t.Fatalf("λ=%d: blob lookup %x = %d want %d", lambda, addr, got, want)
			}
			l2, depth := blob.LookupDepth(addr)
			if l2 != want {
				t.Fatalf("λ=%d: LookupDepth disagrees", lambda)
			}
			if depth > fib.W-lambda {
				t.Fatalf("λ=%d: depth %d exceeds W-λ", lambda, depth)
			}
		}
	}
}

func TestSerializeRejectsHugeBarrier(t *testing.T) {
	d, err := Build(sampleFIB(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Serialize(); err == nil {
		t.Fatal("λ=32 serialization should be refused")
	}
}

func TestLookupTraceMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tb := randomTable(rng, 400, 5, true)
	d, err := Build(tb, 8)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := d.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	for probe := 0; probe < 500; probe++ {
		addr := rng.Uint32()
		var offsets []int
		got := blob.LookupTrace(addr, func(off int) { offsets = append(offsets, off) })
		if got != blob.Lookup(addr) {
			t.Fatal("trace lookup disagrees with plain lookup")
		}
		if len(offsets) == 0 {
			t.Fatal("trace must include at least the root access")
		}
		max := blob.SizeBytes()
		for _, off := range offsets {
			if off < 0 || off >= max {
				t.Fatalf("offset %d out of blob [0,%d)", off, max)
			}
		}
		_, depth := blob.LookupDepth(addr)
		if len(offsets) != depth+1 {
			t.Fatalf("trace length %d != depth+1 = %d", len(offsets), depth+1)
		}
	}
}

func TestModelSizeShrinksWithLambda(t *testing.T) {
	// §4: smaller λ yields increasingly smaller FIBs (up to the point
	// where everything is folded); λ=32 is the plain trie.
	rng := rand.New(rand.NewSource(77))
	// Skewed next-hops (low H0): this is the regime the paper's FIBs
	// live in and where folding shines.
	tb := fib.New()
	tb.Add(0, 0, 1)
	for i := 0; i < 20000; i++ {
		plen := rng.Intn(17) + 8
		nh := uint32(1)
		if rng.Float64() < 0.08 {
			nh = uint32(rng.Intn(3)) + 2
		}
		tb.Add(rng.Uint32()&fib.Mask(plen), plen, nh)
	}
	tb.Dedup()
	size := func(lambda int) int {
		d, err := Build(tb, lambda)
		if err != nil {
			t.Fatal(err)
		}
		return d.ModelBytes()
	}
	s8, s32 := size(8), size(32)
	if s8 >= s32 {
		t.Fatalf("λ=8 (%d B) should be smaller than λ=32 (%d B)", s8, s32)
	}
	if s32 < 3*s8 { // plain trie should be much larger (≥3×)
		t.Fatalf("expected strong compression: λ=8 %d B vs λ=32 %d B", s8, s32)
	}
}

func TestStatsDelta(t *testing.T) {
	d, err := Build(sampleFIB(), 2)
	if err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Delta != 3 {
		t.Fatalf("delta = %d want 3", s.Delta)
	}
	if s.ModelBits <= 0 || s.PointerBits <= 0 {
		t.Fatalf("degenerate stats %+v", s)
	}
}
