package ip6

import (
	"fmt"

	"fibcomp/internal/bitvec"
	"fibcomp/internal/trie"
	"fibcomp/internal/wavelet"
)

// XBW is the XBW-b transform over the IPv6 space: the serialization
// and lookup are width-agnostic — only the walk bound changes — so the
// IPv4 machinery (RRR bitvector, Huffman-shaped wavelet tree) carries
// over unmodified.
type XBW struct {
	si     *bitvec.RRR
	salpha *wavelet.Tree
	nodes  int
	leaves int
}

// NewXBW builds the succinct representation of an IPv6 table.
func NewXBW(t *Table) (*XBW, error) {
	lp := (*trie.Trie)(FromTable(t)).LeafPush()
	var si []bool
	var sa []uint32
	queue := []*Node{lp.Root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if v.IsLeaf() {
			si = append(si, true)
			sa = append(sa, v.Label)
		} else {
			si = append(si, false)
			queue = append(queue, v.Left, v.Right)
		}
	}
	b := bitvec.NewBuilder(len(si))
	for _, bit := range si {
		b.Append(bit)
	}
	wt, err := wavelet.New(sa)
	if err != nil {
		return nil, fmt.Errorf("ip6: xbw labels: %v", err)
	}
	return &XBW{si: b.BuildRRR(), salpha: wt, nodes: len(si), leaves: len(sa)}, nil
}

// Lookup performs longest prefix match on the compressed form (§3.1),
// walking up to 128 levels.
func (x *XBW) Lookup(addr Addr) uint32 {
	i := 1
	for q := 0; q <= W; q++ {
		if x.si.Bit(i - 1) {
			return x.salpha.Access(x.si.Rank1(i - 1))
		}
		r := i - x.si.Rank1(i)
		i = 2*r + int(addr.Bit(q))
	}
	return NoLabel
}

// SizeBits reports the compressed size.
func (x *XBW) SizeBits() int { return x.si.SizeBits() + x.salpha.SizeBits() }

// Leaves reports n.
func (x *XBW) Leaves() int { return x.leaves }
