package pdag

import "fibcomp/internal/fib"

// Stats summarizes the DAG per the memory model of §4.2: above the
// barrier each node holds one node pointer (children are consecutive)
// plus a lg δ-bit label index; at and below the barrier nodes hold two
// pointers and no label; the coalesced leaves add δ·lg δ bits.
type Stats struct {
	Lambda         int
	UpNodes        int
	FoldedInterior int
	FoldedLeaves   int
	Delta          int // distinct non-empty labels present
	PointerBits    int
	ModelBits      int
}

// Stats computes the model-size statistics of the current region.
func (d *Region) Stats() Stats {
	s := Stats{
		Lambda:         d.Lambda,
		UpNodes:        d.UpNodes(),
		FoldedInterior: len(d.sub),
		FoldedLeaves:   len(d.leaves),
	}
	labels := map[uint32]bool{}
	var walkUp func(n *Node)
	walkUp = func(n *Node) {
		if n == nil || n.kind != kindUp {
			return
		}
		if n.Label != fib.NoLabel {
			labels[n.Label] = true
		}
		walkUp(n.Left)
		walkUp(n.Right)
	}
	walkUp(d.root)
	for l := range d.leaves {
		if l != fib.NoLabel {
			labels[l] = true
		}
	}
	s.Delta = len(labels)

	total := s.UpNodes + s.FoldedInterior + s.FoldedLeaves
	s.PointerBits = ceilLog2(total + 1)
	if s.PointerBits < 1 {
		s.PointerBits = 1
	}
	lgDelta := ceilLog2(s.Delta + 1) // +1 for the ∅ label
	s.ModelBits = s.UpNodes*(s.PointerBits+lgDelta) +
		s.FoldedInterior*2*s.PointerBits +
		s.FoldedLeaves*lgDelta
	return s
}

// ModelBytes reports the §4.2 model size in bytes.
func (d *Region) ModelBytes() int {
	return (d.Stats().ModelBits + 7) / 8
}

func ceilLog2(x int) int {
	if x <= 1 {
		return 0
	}
	b := 0
	for v := x - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}
