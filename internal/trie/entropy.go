package trie

import (
	"fibcomp/internal/huffman"
)

// LevelEntropy computes the level-conditioned entropy of the leaf
// labels: H_lvl = Σ_d (n_d/n)·H(labels at depth d). §3.2 observes that
// a node's level is its natural context — XBW-b lays nodes of the same
// level consecutively precisely so a higher-order compressor can
// exploit it — so H_lvl ≤ H0 quantifies how much such contextual
// dependency a FIB actually has. The trie must be in normal form.
func (t *Trie) LevelEntropy() float64 {
	if !t.IsProperLeafLabeled() {
		panic("trie: LevelEntropy requires a leaf-pushed trie")
	}
	perLevel := map[int]map[uint32]uint64{}
	total := 0
	var walk func(n *Node, d int)
	walk = func(n *Node, d int) {
		if n == nil {
			return
		}
		if n.IsLeaf() {
			m := perLevel[d]
			if m == nil {
				m = map[uint32]uint64{}
				perLevel[d] = m
			}
			m[n.Label]++
			total++
			return
		}
		walk(n.Left, d+1)
		walk(n.Right, d+1)
	}
	walk(t.Root, 0)
	if total == 0 {
		return 0
	}
	var h float64
	for _, freq := range perLevel {
		var nd uint64
		for _, f := range freq {
			nd += f
		}
		h += float64(nd) / float64(total) * huffman.Entropy(freq)
	}
	return h
}
