package trie

import (
	"math"
	"math/rand"
	"testing"

	"fibcomp/internal/fib"
)

func TestLevelEntropyUpperBoundedByH0(t *testing.T) {
	// Conditioning never increases entropy: H_lvl ≤ H0.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		tb := randomTable(rng, 500, 6)
		lp := FromTable(tb).LeafPush()
		h0 := lp.LeafStats().H0
		hl := lp.LevelEntropy()
		if hl > h0+1e-9 {
			t.Fatalf("trial %d: H_lvl %.4f > H0 %.4f", trial, hl, h0)
		}
	}
}

func TestLevelEntropyDetectsContext(t *testing.T) {
	// A FIB where the label *set* is determined by the depth: the left
	// half of the space holds /10 leaves alternating labels {1,2}, the
	// right half /14 leaves alternating {3,4}. Alternation prevents
	// sibling merging, so the normal form keeps the two populations at
	// their own levels, and conditioning on the level removes the
	// between-level label uncertainty: H_lvl < H0.
	tb := fib.New()
	for i := 0; i < 1<<9; i++ { // 0xxxxxxxxx /10
		tb.Add(uint32(i)<<22, 10, uint32(i&1)+1)
	}
	for i := 1 << 13; i < 1<<14; i++ { // 1xxxxxxxxxxxxx /14
		tb.Add(uint32(i)<<18, 14, uint32(i&1)+3)
	}
	lp := FromTable(tb).LeafPush()
	h0 := lp.LeafStats().H0
	hl := lp.LevelEntropy()
	if h0 < 1.2 {
		t.Fatalf("H0 = %.3f: expected four mixed labels", h0)
	}
	if hl > h0-0.2 {
		t.Fatalf("H_lvl %.4f should sit well below H0 %.4f on level-determined labels", hl, h0)
	}
	// Within each level the labels stay maximally mixed: H_lvl ≈ 1.
	if math.Abs(hl-1) > 1e-6 {
		t.Fatalf("H_lvl = %.6f, want 1 (alternating pairs per level)", hl)
	}
}

func TestLevelEntropyUniformSingleLevel(t *testing.T) {
	// All leaves on one level with uniform labels: H_lvl == H0.
	tb := fib.New()
	for i := 0; i < 256; i++ {
		tb.Add(uint32(i)<<24, 8, uint32(i%4)+1)
	}
	lp := FromTable(tb).LeafPush()
	h0 := lp.LeafStats().H0
	hl := lp.LevelEntropy()
	if math.Abs(h0-hl) > 1e-9 {
		t.Fatalf("single-level trie: H_lvl %.4f != H0 %.4f", hl, h0)
	}
}

func TestLevelEntropyPanicsOnRawTrie(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-normalized trie")
		}
	}()
	FromTable(fib.MustParse("0.0.0.0/0 1", "0.0.0.0/1 2")).LevelEntropy()
}
