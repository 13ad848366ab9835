// Package pdag implements the trie-folding algorithm and the prefix
// DAG of §4, the paper's practical FIB compression scheme. Below a
// leaf-push barrier λ the trie is leaf-pushed and isomorphic labeled
// sub-tries are merged into a DAG by hash-consing (the sub-trie index
// S and the leaf table lp of §4.1, with reference counts); above λ a
// plain binary prefix tree keeps updates cheap. Lookup is exactly
// standard trie lookup — follow the bits, remember the last label —
// so a prefix DAG is a drop-in replacement for trie-based FIBs, and
// there is no space-time trade-off: smaller λ only shrinks memory.
//
// An uncompressed control FIB (a plain trie, kept in DRAM on a real
// line card) travels with the DAG and is consulted only by the update
// path, exactly as §4.1 prescribes.
package pdag

import (
	"fibcomp/internal/fib"
	"fibcomp/internal/trie"
)

// Node kinds. Up nodes form the plain trie above the barrier and are
// mutable and unshared; folded interior nodes and folded leaves live
// at and below the barrier, are immutable, shared and reference
// counted.
const (
	kindUp byte = iota
	kindInt
	kindLeaf
)

const leafIDBase = uint64(1) << 40

// Node is a prefix-DAG node. Only up nodes and folded leaves carry a
// label; folded interior nodes are unlabeled (their labels were pushed
// to the leaves). The zero label is the paper's ∅ / cleared-⊥ label.
//
// serialIdx/serialEpoch are the node's stamp: its arena index, valid
// only while serialEpoch is its space's stampEpoch, so an emission
// appends only what the generation has not seen. The v2 study
// serializer stamps here too, under bumpEpoch's epochs.
type Node struct {
	Left, Right *Node
	Label       uint32
	id          uint64
	serialEpoch uint64
	serialIdx   uint32
	ref         int32
	kind        byte
}

// Region is the half of a prefix DAG that never reads an address: the
// plain mirror above the barrier, the folded region below it — the
// sub-trie index S, the leaf table lp and their reference counts
// (§4.1) — and its serialized form (§5.3). What keeps a region in step
// with a control trie is the Descent, over the operations up, leaf,
// cons, split, drop and dropUp.
type Region struct {
	// Width is the depth of the address space in bits: 32 for IPv4
	// FIBs, 128 for IPv6, lg n for the string-compression model of §4.2.
	Width int
	// Lambda is the leaf-push barrier λ ∈ [0, Width].
	Lambda int

	root   *Node
	sub    map[[2]uint64]*Node // the sub-trie index S: the space's
	leaves map[uint32]*Node    // the leaf table lp: the space's

	// space is the hash-cons universe the region folds into: shared
	// (an engine's shards, a registry's tenants), or a private
	// region's own (Build, FromTrie).
	space *Space

	// The v2 study serializer's scratch (SerializeV2Into): its epoch,
	// stride roots in emission order and DFS stack. It goes when the
	// v2 format does.
	serialEpoch uint64
	serialList  []*Node
	serialStack []*Node
}

// newRegion returns an empty region of the given key width and
// barrier, folding into sp when that is non-nil (the caller then holds
// the space lock) and into a private space of its own otherwise.
func newRegion(sp *Space, width, lambda int) Region {
	if sp == nil {
		sp = NewArena(0)
		sp.private = true
	}
	return Region{Width: width, Lambda: lambda, sub: sp.sub, leaves: sp.leaves, space: sp}
}

// DAG is a compressed IPv4 FIB: the descent over 32-bit keys, plus
// the flat v2 serializer and the string model of §4.2.
type DAG struct {
	*Descent

	// The v2 serializer's word watermark and stride-expansion buffer.
	serialWatermark uint32
	serialExps      []strideExp

	symOffset uint32 // string mode: symbol s stored as label s+1
}

// Build constructs a prefix DAG from a FIB table with leaf-push
// barrier lambda.
func Build(t *fib.Table, lambda int) (*DAG, error) {
	return fromTrie(trie.FromTable(t), lambda)
}

// FromTrie constructs a prefix DAG from a binary prefix trie (not
// necessarily proper or leaf-pushed, per §4.1). The trie is cloned
// into the DAG's control FIB; the caller keeps ownership of t.
func FromTrie(t *trie.Trie, lambda int) (*DAG, error) {
	return fromTrie(t.Clone(), lambda)
}

func fromTrie(control *trie.Trie, lambda int) (*DAG, error) {
	d, err := NewDescent(nil, control, fib.W, lambda)
	if err != nil {
		return nil, err
	}
	return &DAG{Descent: d}, nil
}

// newNode pops a node off the space's recycled chain (a shared node
// dies in whichever member drops its last reference) or allocates one.
func (d *Region) newNode() *Node {
	n := d.space.freeNode
	if n == nil {
		return &Node{}
	}
	d.space.freeNode = n.Left
	*n = Node{}
	return n
}

// recycleNode pushes a dead node, unstamped, onto the space's chain.
func (d *Region) recycleNode(n *Node) {
	*n = Node{Left: d.space.freeNode}
	d.space.freeNode = n
}

// up returns a fresh unlabeled plain node for the mirror above the
// barrier; the descent fills in its label and children.
func (d *Region) up() *Node {
	n := d.newNode()
	n.kind = kindUp
	return n
}

// leaf returns the coalesced leaf for a label (lp(s)), creating it on
// first use, and takes one reference.
func (d *Region) leaf(label uint32) *Node {
	if n, ok := d.leaves[label]; ok {
		n.ref++
		return n
	}
	n := d.newNode()
	n.kind, n.Label, n.id, n.ref = kindLeaf, label, leafIDBase|uint64(label), 1
	d.leaves[label] = n
	return n
}

// cons returns the canonical interior node with children (l, r) —
// put(i, j, v) of §4.1. It consumes one reference of each child and
// returns a node carrying one reference for the caller. A node whose
// children are the same coalesced leaf normalizes to that leaf,
// maintaining the leaf-pushed normal form under updates.
func (d *Region) cons(l, r *Node) *Node {
	if l == r && l.kind == kindLeaf {
		d.drop(r) // two references in, one (on the leaf itself) out
		return l
	}
	key := [2]uint64{l.id, r.id}
	if n, ok := d.sub[key]; ok {
		n.ref++
		d.drop(l)
		d.drop(r)
		return n
	}
	n := d.newNode()
	n.kind, n.Left, n.Right, n.id, n.ref = kindInt, l, r, d.allocID(), 1
	d.sub[key] = n
	return n
}

// split decompresses one level of the folded region for a descent
// passing through v: it returns v's children, each holding a reference
// for the caller while it re-parents them. A coalesced leaf that
// bottomed the region out early expands into two references to itself
// — its label is the in-force label of the whole subtree, right for
// the untouched sibling half. v's own reference stays the caller's.
func (d *Region) split(v *Node) (l, r *Node) {
	if v.kind == kindLeaf {
		return d.leaf(v.Label), d.leaf(v.Label)
	}
	v.Left.ref++
	v.Right.ref++
	return v.Left, v.Right
}

// allocID draws the next interior-node id from the space's counter
// (ids key the shared cons index, so per-region counters would
// collide). Ids are never reused: a space's idMark counts on them
// being monotonic to know what the next emission will append.
func (d *Region) allocID() uint64 {
	d.space.nextID++
	return d.space.nextID
}

// bumpEpoch starts a fresh stamping epoch for the v2 study serializer,
// from the space-wide counter so stamps on shared nodes never collide.
func (d *Region) bumpEpoch() {
	d.space.epoch++
	d.serialEpoch = d.space.epoch
}

// drop releases one reference to a folded node — get(i, j) of §4.1 —
// deleting the node and dereferencing its children when the count
// reaches zero. Nil and up nodes are ignored.
func (d *Region) drop(n *Node) {
	if n == nil || n.kind == kindUp {
		return
	}
	n.ref--
	if n.ref > 0 {
		return
	}
	if n.kind == kindLeaf {
		delete(d.leaves, n.Label)
		d.recycleNode(n)
		return
	}
	delete(d.sub, [2]uint64{n.Left.id, n.Right.id})
	if n.serialEpoch != d.space.stampEpoch() {
		d.space.idMark++ // died before an emission reached it: never to be appended
	}
	l, r := n.Left, n.Right
	d.recycleNode(n)
	d.drop(l)
	d.drop(r)
}

// dropUp releases an abandoned subtree of the plain mirror,
// dereferencing every folded sub-trie hanging below it and recycling
// the plain nodes.
func (d *Region) dropUp(n *Node) {
	if n == nil {
		return
	}
	if n.kind != kindUp {
		d.drop(n)
		return
	}
	l, r := n.Left, n.Right
	d.recycleNode(n)
	d.dropUp(l)
	d.dropUp(r)
}

// Release drops every folded reference the plain region holds,
// returning its share of the space's nodes — the teardown a shared
// Reload or tenant removal needs so replaced tables do not pin their
// subtrees in the space forever. The region is unusable afterwards.
// Called under the space lock; harmless (and unnecessary) for a
// private region.
func (d *Region) Release() {
	d.dropUp(d.root)
	d.root = nil
}

// Set inserts or changes the association for IPv4 prefix addr/plen
// (the update of §4.3, see Descent.SetKey).
func (d *DAG) Set(addr uint32, plen int, label uint32) error {
	return d.SetKey(trie.V4(addr), plen, label)
}

// Delete removes the association for IPv4 prefix addr/plen, reporting
// whether it was present.
func (d *DAG) Delete(addr uint32, plen int) bool { return d.DeleteKey(trie.V4(addr), plen) }

// Lookup performs longest prefix match on an IPv4 address.
func (d *DAG) Lookup(addr uint32) uint32 { label, _ := d.LookupKey(trie.V4(addr)); return label }

// LookupSteps is Lookup instrumented with the number of pointer
// dereferences, for the depth statistics of Table 2.
func (d *DAG) LookupSteps(addr uint32) (label uint32, steps int) { return d.LookupKey(trie.V4(addr)) }

// FoldedInterior reports the number of shared interior nodes (|S|).
func (d *Region) FoldedInterior() int { return len(d.sub) }

// FoldedLeaves reports the number of coalesced leaves (|lp|).
func (d *Region) FoldedLeaves() int { return len(d.leaves) }

// UpNodes reports the number of plain trie nodes above the barrier.
func (d *Region) UpNodes() int {
	var count func(n *Node) int
	count = func(n *Node) int {
		if n == nil || n.kind != kindUp {
			return 0
		}
		return 1 + count(n.Left) + count(n.Right)
	}
	return count(d.root)
}

// Nodes reports the total node count of the DAG.
func (d *Region) Nodes() int {
	return d.UpNodes() + len(d.sub) + len(d.leaves)
}
