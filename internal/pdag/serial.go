package pdag

import (
	"errors"

	"fibcomp/internal/fib"
)

// Blob is the serialized, read-only lookup structure of §5.3: the
// first λ trie levels are collapsed into a 2^λ-entry root array (each
// entry packing the inherited default label with a pointer into the
// folded region), and every folded interior node is two 32-bit words.
// Leaves are inlined into their parent's words. This is the format a
// line-card lookup engine (kernel module, FPGA) walks; its byte size
// is what Tables 1–2 and Figs 5–7 report as "pDAG".
type Blob struct {
	Lambda int
	Width  int
	Root   []uint32 // root entries: def<<24 | payload
	Nodes  []uint32 // 2 words per interior node: payload each

	// RootBase is the logical offset of Root[0] within the full
	// 2^λ-entry root array. Serialize, and SerializeShared with no
	// shard bits, carry the whole array (RootBase 0); a shard's blob
	// carries only its live window, with RootBase naming where that
	// window sits — walks subtract it before indexing Root.
	RootBase int
}

// Payload encoding (24 bits in root entries, 32 bits in node words).
const (
	blobNone     = 0x00FFFFFF // root entry: no folded subtree
	blobLeafFlag = 0x00800000 // root entry payload: inlined leaf
	wordLeafFlag = 0x80000000 // node word: inlined leaf
	maxBlobIdx   = 0x007FFFFF
)

// The payload encoding under its exported names, for the walkers of
// another key width (ip6.Blob walks these words with 128-bit keys).
const (
	BlobNone     = blobNone
	BlobLeafFlag = blobLeafFlag
	WordLeafFlag = wordLeafFlag
)

// maxSerialLambda bounds the root array to 64 MB; larger barriers
// make no sense for a serialized FIB (and the paper uses λ=11).
const maxSerialLambda = 24

// Serialize freezes a private region into a fresh Blob.
func (d *Region) Serialize() (*Blob, error) { return d.SerializeInto(nil) }

// SerializeInto freezes a private region (Build, FromTrie) into b,
// reusing b's buffers when their capacity suffices (b == nil allocates
// a fresh blob; the caller owns the exclusivity of b). It is the
// engine's emitter on a fresh generation — Compact, then
// SerializeShared of the whole root — so the blob holds exactly the
// live folded nodes in canonical order, whatever churn came before.
// It stamps the nodes: run it under the exclusion that guards
// Set/Delete. On error b must not be published. A member of a shared
// space is refused: its stamps belong to the space's arena.
func (d *Region) SerializeInto(b *Blob) (*Blob, error) {
	sp := d.space
	if !sp.private {
		return nil, errors.New("pdag: Serialize on a member of a shared space; use SerializeShared")
	}
	if b != nil {
		sp.free = b.Nodes // the new generation's array
	}
	sp.Compact()
	return d.SerializeShared(b, 0, 0)
}

// fillRoot writes the root-array entries covered by the plain-region
// node n at depth, i.e. slots [v<<(λ-depth), (v+1)<<(λ-depth)). def is
// the last label seen on the path, the inherited default packed into
// bits 24..31 of each entry. Folded subtrees reached above the barrier
// cover their whole slot range with one payload: the index assign
// gives their node — assignShared's arena index, or the v2 study
// format's stride offset; both formats share the root-array encoding
// and differ only in what assign emits.
func (d *Region) fillRoot(root []uint32, lambda int, n *Node, v uint32, depth int, def uint32, assign func(*Node) (uint32, error)) error {
	lo := int(v) << uint(lambda-depth)
	hi := lo + 1<<uint(lambda-depth)
	if n == nil {
		fillWords(root[lo:hi], def<<24|blobNone)
		return nil
	}
	switch n.kind {
	case kindLeaf:
		fillWords(root[lo:hi], def<<24|blobLeafFlag|(n.Label&0xFF))
		return nil
	case kindInt:
		idx, err := assign(n)
		if err != nil {
			return err
		}
		fillWords(root[lo:hi], def<<24|idx)
		return nil
	}
	if n.Label != fib.NoLabel {
		def = n.Label
	}
	if depth == lambda {
		// A plain node at the barrier: nothing folded hangs here (the
		// builder folds exactly at λ), only the default applies.
		root[lo] = def<<24 | blobNone
		return nil
	}
	if err := d.fillRoot(root, lambda, n.Left, 2*v, depth+1, def, assign); err != nil {
		return err
	}
	return d.fillRoot(root, lambda, n.Right, 2*v+1, depth+1, def, assign)
}

// wordFor encodes a folded child as one 32-bit node word.
func wordFor(n *Node) uint32 {
	if n.kind == kindLeaf {
		return wordLeafFlag | (n.Label & 0xFF)
	}
	return n.serialIdx
}

// fillWords writes v into every slot; the compiler lowers this loop to
// a vectorized fill.
func fillWords(s []uint32, v uint32) {
	for i := range s {
		s[i] = v
	}
}

// lookupWalk is the one scalar walk of the v1 blob; the three public
// entry points are thin wrappers over it instead of hand-maintained
// copies. It returns the matched label and the number of node words
// touched below the root array (the "depth" of Table 2). A non-nil
// visit receives the byte offset of every word read, in order; the
// nil checks are perfectly predicted branches in the plain-Lookup
// instantiation, measured at zero cost next to the walk's loads.
func lookupWalk(b *Blob, addr uint32, visit func(byteOffset int)) (label uint32, depth int) {
	ri := int(addr>>uint(fib.W-b.Lambda)) - b.RootBase
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
	idx := pay
	for q := b.Lambda; q < b.Width; q++ {
		depth++
		wi := 2*idx + fib.Bit(addr, q)
		if visit != nil {
			visit(len(b.Root)*4 + int(wi)*4)
		}
		w := b.Nodes[wi]
		if w&wordLeafFlag != 0 {
			if l := w & 0xFF; l != fib.NoLabel {
				best = l
			}
			return best, depth
		}
		idx = w
	}
	return best, depth
}

// Lookup performs longest prefix match on the serialized form: one
// root-array access plus one word access per level below the barrier.
func (b *Blob) Lookup(addr uint32) uint32 {
	label, _ := lookupWalk(b, addr, nil)
	return label
}

// LookupDepth is Lookup instrumented with the number of node words
// touched below the root array, the "depth" of Table 2.
func (b *Blob) LookupDepth(addr uint32) (label uint32, depth int) {
	return lookupWalk(b, addr, nil)
}

// LookupTrace runs Lookup reporting every byte offset read from the
// blob, in order, to the callback; the cache and FPGA simulators feed
// on this access stream. The root array starts at offset 0 and node
// words follow it.
func (b *Blob) LookupTrace(addr uint32, visit func(byteOffset int)) uint32 {
	label, _ := lookupWalk(b, addr, visit)
	return label
}

// SizeBytes reports the byte size of the serialized structure.
func (b *Blob) SizeBytes() int {
	return 4 * (len(b.Root) + len(b.Nodes))
}
