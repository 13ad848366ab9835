package trie

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fibcomp/internal/fib"
)

// sampleFIB is the running example of §2 (Fig 1): 6 prefixes over the
// first three address bits.
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

// countNodes reports the nodes of a subtree.
func countNodes(n *Node) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.Left) + countNodes(n.Right)
}

// randomTable builds a random FIB with n prefixes and delta labels.
func randomTable(rng *rand.Rand, n, delta int) *fib.Table {
	t := fib.New()
	t.Add(0, 0, uint32(rng.Intn(delta))+1) // default route
	for i := 1; i < n; i++ {
		plen := rng.Intn(25) + 8
		addr := rng.Uint32() & fib.Mask(plen)
		t.Add(addr, plen, uint32(rng.Intn(delta))+1)
	}
	t.Dedup()
	return t
}

func TestLookupMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		tb := randomTable(rng, 300, 7)
		tr := FromTable(tb)
		for probe := 0; probe < 2000; probe++ {
			addr := rng.Uint32()
			if got, want := tr.Lookup(addr), tb.LookupLinear(addr); got != want {
				t.Fatalf("trial %d: lookup %x = %d want %d", trial, addr, got, want)
			}
		}
	}
}

func TestSampleLookups(t *testing.T) {
	tr := FromTable(sampleFIB())
	addr := func(s string) uint32 {
		a, err := fib.ParseAddr(s)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	if tr.Lookup(addr("96.0.0.0")) != 1 { // the paper's 0111... example
		t.Fatal("011 should map to 1")
	}
	if tr.Lookup(addr("128.0.0.0")) != 2 {
		t.Fatal("1xx should fall back to the default route")
	}
	if tr.Lookup(addr("0.0.0.0")) != 3 {
		t.Fatal("000 should map to 3")
	}
}

func TestInsertDelete(t *testing.T) {
	tr := New()
	tr.Insert(0x0A000000, 8, 5)
	if tr.Lookup(0x0A000001) != 5 {
		t.Fatal("insert not visible")
	}
	if !tr.Delete(0x0A000000, 8) {
		t.Fatal("delete should report success")
	}
	if tr.Lookup(0x0A000001) != fib.NoLabel {
		t.Fatal("delete not effective")
	}
	if tr.Delete(0x0A000000, 8) {
		t.Fatal("double delete should report false")
	}
	// The pruned trie must be a bare root again.
	if countNodes(tr.Root) != 1 {
		t.Fatalf("nodes after prune = %d, want 1", countNodes(tr.Root))
	}
}

func TestDeletePreservesSiblings(t *testing.T) {
	tr := New()
	tr.Insert(0x00000000, 2, 1) // 00
	tr.Insert(0x40000000, 2, 2) // 01
	tr.Delete(0x00000000, 2)
	if tr.Lookup(0x40000001) != 2 {
		t.Fatal("sibling lost")
	}
	if tr.Lookup(0x00000001) != fib.NoLabel {
		t.Fatal("deleted prefix still resolves")
	}
}

func TestLeafPushSample(t *testing.T) {
	// Fig 1(e): the leaf-pushed sample trie has 9 nodes and 5 leaves
	// labeled 3,2,2,1 (depth 3) and 2 (depth 1).
	lp := FromTable(sampleFIB()).LeafPush()
	if !lp.IsProperLeafLabeled() {
		t.Fatal("not proper leaf-labeled")
	}
	s := lp.LeafStats()
	if s.Nodes != 9 || s.Leaves != 5 {
		t.Fatalf("nodes/leaves = %d/%d want 9/5", s.Nodes, s.Leaves)
	}
	if s.LabelFreq[2] != 3 || s.LabelFreq[1] != 1 || s.LabelFreq[3] != 1 {
		t.Fatalf("leaf label frequencies %v", s.LabelFreq)
	}
}

func TestLeafPushEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := randomTable(rng, 150, 5)
		tr := FromTable(tb)
		lp := tr.LeafPush()
		if !lp.IsProperLeafLabeled() {
			return false
		}
		for probe := 0; probe < 500; probe++ {
			addr := rng.Uint32()
			if tr.Lookup(addr) != lp.Lookup(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestLeafPushIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tb := randomTable(rng, 200, 4)
	lp := FromTable(tb).LeafPush()
	lp2 := lp.LeafPush()
	if s, s2 := lp.LeafStats(), lp2.LeafStats(); s.Nodes != s2.Nodes || s.Leaves != s2.Leaves {
		t.Fatalf("leaf-push not idempotent: %d/%d vs %d/%d", s.Nodes, s.Leaves, s2.Nodes, s2.Leaves)
	}
}

func TestLeafPushNoRoute(t *testing.T) {
	// A FIB without default route: uncovered space must stay label 0.
	tb := fib.MustParse("128.0.0.0/1 4")
	lp := FromTable(tb).LeafPush()
	if lp.Lookup(0x00000001) != fib.NoLabel {
		t.Fatal("uncovered space should have no route")
	}
	if lp.Lookup(0x80000001) != 4 {
		t.Fatal("covered space lost its route")
	}
	s := lp.LeafStats()
	if s.Delta != 1 {
		t.Fatalf("delta = %d want 1 (label 0 excluded)", s.Delta)
	}
}

func TestLeafPushEmpty(t *testing.T) {
	lp := New().LeafPush()
	if !lp.IsProperLeafLabeled() || countNodes(lp.Root) != 1 {
		t.Fatal("empty trie should normalize to a single ∅ leaf")
	}
	if lp.Lookup(12345) != fib.NoLabel {
		t.Fatal("empty trie lookup should be ∅")
	}
}

func TestLeafPushDefaultOnly(t *testing.T) {
	tb := fib.MustParse("0.0.0.0/0 7")
	lp := FromTable(tb).LeafPush()
	if s := lp.LeafStats(); s.Nodes != 1 || s.Leaves != 1 {
		t.Fatal("default-only FIB should collapse to a single leaf")
	}
	if lp.Lookup(0xDEADBEEF) != 7 {
		t.Fatal("default not honored")
	}
}

func TestStatsEntropyBounds(t *testing.T) {
	// Proposition 1/2 sanity: on the sample FIB, n=5, labels {3:1,2:3,1:1},
	// H0 = -(0.6 lg 0.6 + 2·0.2 lg 0.2) ≈ 1.371; E = 2n + nH0 ≈ 16.85 bits.
	lp := FromTable(sampleFIB()).LeafPush()
	s := lp.LeafStats()
	if s.Leaves != 5 || s.Delta != 3 {
		t.Fatalf("n=%d δ=%d", s.Leaves, s.Delta)
	}
	if s.H0 < 1.37 || s.H0 > 1.372 {
		t.Fatalf("H0 = %v", s.H0)
	}
	wantI := 2.0*5 + 5*2 // lg 3 = 2
	if s.InfoBound != wantI {
		t.Fatalf("I = %v want %v", s.InfoBound, wantI)
	}
	if s.Entropy <= 2*5 || s.Entropy >= s.InfoBound {
		t.Fatalf("E = %v should be in (2n, I)", s.Entropy)
	}
}

func TestEntriesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tb := randomTable(rng, 100, 6)
	tr := FromTable(tb)
	back := New()
	for _, e := range tr.Entries() {
		back.Insert(e.Addr, e.Len, e.NextHop)
	}
	for probe := 0; probe < 1000; probe++ {
		addr := rng.Uint32()
		if tr.Lookup(addr) != back.Lookup(addr) {
			t.Fatal("Entries() lost information")
		}
	}
}

// TestCopyMarksChildren: a trie that reaches another's subtree through
// one shared node (only its top marked) copies that node before writing
// below it, and the copy marks the children it now shares, so a second
// write one level deeper copies again instead of writing in place.
func TestCopyMarksChildren(t *testing.T) {
	a, b := FromTable(sampleFIB()), New()
	b.Root.Left, a.Root.Left.shared = a.Root.Left, true
	b.Insert(0x20000000, 3, 7) // 001, below the shared 0
	b.Insert(0x10000000, 4, 8) // 0001, below the shared 00
	b.Delete(0x00000000, 2)
	want := FromTable(sampleFIB())
	for _, addr := range []uint32{0, 0x10000000, 0x20000000, 0x40000000, 0x60000000} {
		if got := a.Lookup(addr); got != want.Lookup(addr) {
			t.Fatalf("writes to the sharing trie moved %08x: %d, want %d", addr, got, want.Lookup(addr))
		}
	}
	if b.Lookup(0x10000000) != 8 || b.Lookup(0x20000000) != 7 || b.Lookup(0) != 3 {
		t.Fatal("the sharing trie lost its own writes")
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := FromTable(sampleFIB())
	cl := tr.Clone()
	tr.Insert(0xFF000000, 8, 9)
	if cl.Lookup(0xFF000001) == 9 {
		t.Fatal("clone shares nodes with original")
	}
}

func TestMaxDepth(t *testing.T) {
	tr := New()
	if tr.MaxDepth() != 0 {
		t.Fatal("empty trie depth")
	}
	tr.Insert(0, 32, 1)
	if tr.MaxDepth() != 32 {
		t.Fatalf("depth = %d want 32", tr.MaxDepth())
	}
}

func TestLookupStepsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tb := randomTable(rng, 500, 4)
	tr := FromTable(tb)
	for probe := 0; probe < 200; probe++ {
		_, steps := tr.LookupSteps(rng.Uint32())
		if steps > fib.W+1 {
			t.Fatalf("lookup visited %d nodes, O(W) bound violated", steps)
		}
	}
}

func TestHostRouteAndZeroLen(t *testing.T) {
	tr := New()
	tr.Insert(0xC0A80101, 32, 3) // host route
	tr.Insert(0, 0, 1)           // default
	if tr.Lookup(0xC0A80101) != 3 {
		t.Fatal("host route")
	}
	if tr.Lookup(0xC0A80102) != 1 {
		t.Fatal("neighbor address should hit default")
	}
}
