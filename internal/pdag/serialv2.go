package pdag

import (
	"fmt"
	"math/bits"

	"fibcomp/internal/fib"
)

// BlobV2 is the stride-compressed serialized lookup structure: the
// same 2^λ-entry root array as Blob, but with the folded region
// level-compressed into stride-4 tree-bitmap nodes (the multibit
// technique of the Lulea/tree-bitmap line the paper benchmarks
// against in its trie-family comparison). Where Blob spends one
// dependent memory touch per trie level below the barrier — up to
// W−λ = 21 at the default λ=11 — BlobV2 consumes four address bits
// per node, cutting the dependent chain to ⌈(W−λ)/4⌉ ≈ 6 touches,
// and usually shrinking the blob as well (a full 4-level subtree of
// 15 binary interior nodes is 30 Blob words but at most 17 here).
//
// Node record layout, starting at word offset `off` in Words:
//
//	Words[off]      bitmaps: external<<16 | internal
//	Words[off+1..]  popcount-indexed child words, one per set
//	                external bit, in ascending chunk order; each is
//	                either an inlined depth-4 leaf (bit 31 set, label
//	                in the low byte) or the word offset of the child
//	                stride node
//	Words[..]       internal leaf labels, packed four per word in
//	                ascending heap-position order
//
// The internal bitmap marks leaves at depths 1–3 inside the stride by
// heap position (position p at depth d covers path p−2^d): bits 2..15;
// bits 0–1 are never set (the node itself is interior by
// construction). The external bitmap marks the 16 depth-4 slots whose
// walk continues or ends in an inlined leaf. A leaf-pushed proper
// subtrie makes the internal positions disjoint — at most one
// internal bit matches any chunk path — so longest-prefix matching
// inside a node is a single masked popcount (bits.OnesCount16, which
// the compiler lowers to POPCNT), not a priority scan.
//
// Hash-consed sharing survives serialization: a folded subtree
// reachable from many barrier slots or many depth-4 parents is
// emitted once and referenced by offset, exactly as Blob shares node
// indices — the child words are explicit for this reason (the classic
// contiguous-children tree bitmap cannot share subtrees).
type BlobV2 struct {
	Lambda int
	Width  int
	Root   []uint32 // 2^λ entries, same encoding as Blob.Root
	Words  []uint32 // stride-node records, variable length
}

// strideIntMask[c] selects the internal-bitmap positions on the path
// of chunk c: heap positions 2+(c>>3), 4+(c>>2) and 8+(c>>1), the
// depth-1..3 ancestors of depth-4 slot c.
var strideIntMask = [16]uint16{
	0x0114, 0x0114, 0x0214, 0x0214, 0x0424, 0x0424, 0x0824, 0x0824,
	0x1048, 0x1048, 0x2048, 0x2048, 0x4088, 0x4088, 0x8088, 0x8088,
}

// strideExp is the 4-level expansion of one folded interior node,
// the scratch between the binary DAG and one serialized stride node.
// It lives in the DAG (serialExp) so expansion allocates nothing.
type strideExp struct {
	intBM  uint16
	extBM  uint16
	leafAt [16]uint8 // internal leaf label, indexed by heap position
	child  [16]*Node // external child, indexed by chunk; nil = leaf
	leaf4  [16]uint8 // inlined depth-4 leaf label, indexed by chunk
}

// words reports the serialized size of the expansion in 32-bit words:
// the bitmaps word, one child word per external bit, and the internal
// labels packed four per word.
func (s *strideExp) words() uint32 {
	return 1 + uint32(bits.OnesCount16(s.extBM)) + uint32(bits.OnesCount16(s.intBM)+3)/4
}

// expand fills s with the stride-4 expansion of interior node n.
func (s *strideExp) expand(n *Node) {
	s.intBM, s.extBM = 0, 0
	s.walk(n.Left, 2, 1)
	s.walk(n.Right, 3, 1)
}

// walk descends the binary subtree below the stride root, recording
// leaves met before the stride boundary in the internal bitmap and
// everything at the boundary in the external one. pos is the heap
// position (2^depth + path).
func (s *strideExp) walk(n *Node, pos uint32, depth int) {
	if n.kind == kindLeaf {
		if depth == 4 {
			chunk := pos - 16
			s.extBM |= 1 << chunk
			s.child[chunk] = nil
			s.leaf4[chunk] = uint8(n.Label)
			return
		}
		s.intBM |= 1 << pos
		s.leafAt[pos] = uint8(n.Label)
		return
	}
	if depth == 4 {
		chunk := pos - 16
		s.extBM |= 1 << chunk
		s.child[chunk] = n
		return
	}
	s.walk(n.Left, 2*pos, depth+1)
	s.walk(n.Right, 2*pos+1, depth+1)
}

// SerializeV2 freezes the DAG into a fresh BlobV2. It advances the
// space's v2 stamping epoch, so it must run under the same exclusion
// that guards Set/Delete.
func (d *DAG) SerializeV2() (*BlobV2, error) {
	return d.SerializeV2Into(nil)
}

// SerializeV2Into freezes the DAG into b, reusing b's Root and Words
// buffers when their capacity suffices; b == nil allocates a fresh
// blob. Node offsets are stamped onto the folded nodes under a fresh
// bumpEpoch epoch (stampEpoch's bit 63 keeps it from forging an arena
// stamp), and the root fill is the v1 pass with a stride-node
// assigner, so a steady-churn republish allocates nothing. Same
// caveats as SerializeInto: the DAG is mutated (take the writer's
// exclusion), and on error b's contents are unspecified.
func (d *DAG) SerializeV2Into(b *BlobV2) (*BlobV2, error) {
	lambda := d.Lambda
	if lambda > d.Width {
		lambda = d.Width
	}
	if lambda > maxSerialLambda {
		return nil, fmt.Errorf("pdag: cannot serialize with barrier λ=%d > %d", d.Lambda, maxSerialLambda)
	}
	if b == nil {
		b = &BlobV2{}
	}
	b.Lambda, b.Width = lambda, d.Width
	rootLen := 1 << uint(lambda)
	if cap(b.Root) >= rootLen {
		b.Root = b.Root[:rootLen]
	} else {
		b.Root = make([]uint32, rootLen)
	}

	// Pass 1: fill the root array, stamping each stride root with its
	// word offset on first contact and sizing the words region. The
	// expansions computed while sizing are kept (serialExps, reused
	// across republishes) so pass 2 does not walk the DAG again.
	d.bumpEpoch()
	d.serialList = d.serialList[:0]
	d.serialExps = d.serialExps[:0]
	d.serialWatermark = 0
	if err := d.fillRoot(b.Root, lambda, d.root, 0, 0, fib.NoLabel, d.assignV2); err != nil {
		return nil, err
	}

	// Pass 2: emit the stride records; every reachable stride root was
	// stamped in pass 1, so child words are reads of the stamps.
	wordLen := int(d.serialWatermark)
	if cap(b.Words) >= wordLen {
		b.Words = b.Words[:wordLen]
	} else {
		b.Words = make([]uint32, wordLen)
	}
	for i, n := range d.serialList {
		emitStride(b.Words, n.serialIdx, &d.serialExps[i])
	}
	return b, nil
}

// assignV2 gives the folded subtree rooted at n a stride-node word
// offset, expanding and stamping its whole reachable stride DAG on
// first contact. Shared subtrees reached again — from another root
// slot or another stride parent — return their stamped offset, so the
// hash-consed sharing survives in the v2 blob too.
func (d *DAG) assignV2(root *Node) (uint32, error) {
	epoch := d.serialEpoch
	if root.serialEpoch == epoch {
		return root.serialIdx, nil
	}
	root.serialEpoch = epoch
	stack := append(d.serialStack[:0], root)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d.serialWatermark > maxBlobIdx {
			d.serialStack = stack
			return 0, fmt.Errorf("pdag: folded region too large to serialize (%d words)", d.serialWatermark)
		}
		// Expand in place at the node's slot of the kept expansion
		// list; at steady state the list never regrows, so appends
		// cost nothing.
		if len(d.serialExps) < cap(d.serialExps) {
			d.serialExps = d.serialExps[:len(d.serialExps)+1]
		} else {
			d.serialExps = append(d.serialExps, strideExp{})
		}
		exp := &d.serialExps[len(d.serialExps)-1]
		exp.expand(n)
		n.serialIdx = d.serialWatermark
		d.serialWatermark += exp.words()
		d.serialList = append(d.serialList, n)
		// Push unvisited stride children right to left so the leftmost
		// child is expanded next and siblings take nearby offsets (the
		// locality trick of §4.2, one stride at a time).
		for bm := exp.extBM; bm != 0; {
			chunk := 15 - bits.LeadingZeros16(bm)
			bm &^= 1 << chunk
			if c := exp.child[chunk]; c != nil && c.serialEpoch != epoch {
				c.serialEpoch = epoch
				stack = append(stack, c)
			}
		}
	}
	d.serialStack = stack
	return root.serialIdx, nil
}

// emitStride writes one stride-node record at its stamped offset.
// Every word of the record is written, so reused buffers need no
// pre-clearing.
func emitStride(words []uint32, off uint32, s *strideExp) {
	words[off] = uint32(s.extBM)<<16 | uint32(s.intBM)
	w := off + 1
	for bm := s.extBM; bm != 0; bm &= bm - 1 {
		chunk := bits.TrailingZeros16(bm)
		if c := s.child[chunk]; c != nil {
			words[w] = c.serialIdx
		} else {
			words[w] = wordLeafFlag | uint32(s.leaf4[chunk])
		}
		w++
	}
	ri := 0
	var packed uint32
	for bm := s.intBM; bm != 0; bm &= bm - 1 {
		pos := bits.TrailingZeros16(bm)
		packed |= uint32(s.leafAt[pos]) << (uint(ri&3) * 8)
		if ri&3 == 3 {
			words[w] = packed
			w, packed = w+1, 0
		}
		ri++
	}
	if ri&3 != 0 {
		words[w] = packed
	}
}

// lookupWalkV2 is the one scalar walk of the v2 blob, shared by the
// public entry points exactly as lookupWalk is for v1: one root-array
// access, then one stride node per four levels below the barrier.
// depth counts the stride-node records entered (the dependent-touch
// chain the format exists to shorten); visit, when non-nil, receives
// the byte offset of every word read.
func lookupWalkV2(b *BlobV2, addr uint32, visit func(byteOffset int)) (label uint32, depth int) {
	ri := int(addr >> uint(fib.W-b.Lambda))
	if visit != nil {
		visit(ri * 4)
	}
	e := b.Root[ri]
	best := e >> 24
	pay := e & 0x00FFFFFF
	if pay == blobNone {
		return best, 0
	}
	if pay&blobLeafFlag != 0 {
		if l := pay & 0xFF; l != fib.NoLabel {
			best = l
		}
		return best, 0
	}
	off := pay
	cur := addr << uint(b.Lambda)
	// Every path of the folded region ends in a leaf by depth W, so
	// the loop bound is defensive, exactly like v1's.
	for q := b.Lambda; q < b.Width; q += 4 {
		depth++
		if visit != nil {
			visit(len(b.Root)*4 + int(off)*4)
		}
		w0 := b.Words[off]
		intBM, extBM := uint16(w0), uint16(w0>>16)
		c := cur >> 28
		if hit := intBM & strideIntMask[c]; hit != 0 {
			// The leaf-pushed form keeps internal positions disjoint:
			// hit has exactly one set bit, the leaf covering this path.
			ne := uint32(bits.OnesCount16(extBM))
			riW := uint32(bits.OnesCount16(intBM & (hit - 1)))
			wi := off + 1 + ne + riW>>2
			if visit != nil {
				visit(len(b.Root)*4 + int(wi)*4)
			}
			if l := b.Words[wi] >> ((riW & 3) * 8) & 0xFF; l != fib.NoLabel {
				best = l
			}
			return best, depth
		}
		if extBM>>c&1 == 0 {
			return best, depth // unreachable on a well-formed blob
		}
		wi := off + 1 + uint32(bits.OnesCount16(extBM&(1<<c-1)))
		if visit != nil {
			visit(len(b.Root)*4 + int(wi)*4)
		}
		cw := b.Words[wi]
		if cw&wordLeafFlag != 0 {
			if l := cw & 0xFF; l != fib.NoLabel {
				best = l
			}
			return best, depth
		}
		off = cw
		cur <<= 4
	}
	return best, depth
}

// Lookup performs longest prefix match on the stride-compressed form,
// bit-identical to Blob.Lookup on the same DAG.
func (b *BlobV2) Lookup(addr uint32) uint32 {
	label, _ := lookupWalkV2(b, addr, nil)
	return label
}

// LookupDepth is Lookup instrumented with the number of stride nodes
// entered below the root array — the dependent-touch chain length,
// ⌈depth_v1/4⌉ for the same walk.
func (b *BlobV2) LookupDepth(addr uint32) (label uint32, depth int) {
	return lookupWalkV2(b, addr, nil)
}

// LookupTrace runs Lookup reporting every byte offset read from the
// blob, in order, to the callback, feeding the cache and FPGA
// simulators. The root array starts at offset 0 and stride words
// follow it.
func (b *BlobV2) LookupTrace(addr uint32, visit func(byteOffset int)) uint32 {
	label, _ := lookupWalkV2(b, addr, visit)
	return label
}

// SizeBytes reports the byte size of the serialized structure.
func (b *BlobV2) SizeBytes() int {
	return 4 * (len(b.Root) + len(b.Words))
}
