package trie

import "fibcomp/internal/fib"

// Arena is a freelist of Nodes for the update hot path. The §4.3
// incremental update leaf-pushes a scratch copy of a control sub-trie
// on every Set/Delete at or below the barrier; allocating those
// scratch nodes fresh each time makes route churn generate garbage at
// line rate. An arena hands nodes back out of a free chain (linked
// through Left) so a steady-state update touches the heap zero times.
// Arenas are not safe for concurrent use; in the sharded engine each
// shard's writer owns its own under the shard mutex.
type Arena struct {
	free *Node
}

// node pops a node off the free chain (or allocates the first time
// through) and initializes it.
func (a *Arena) node(label uint32, l, r *Node) *Node {
	n := a.free
	if n == nil {
		return &Node{Label: label, Left: l, Right: r}
	}
	a.free = n.Left
	n.Label, n.Left, n.Right, n.shared = label, l, r, false
	return n
}

// copyOf is a private copy of shared node s. Its children are now
// reachable through s and the copy both, so it marks them shared.
func (a *Arena) copyOf(s *Node) *Node {
	if s.Left != nil {
		s.Left.shared = true
	}
	if s.Right != nil {
		s.Right.shared = true
	}
	return a.node(s.Label, s.Left, s.Right)
}

// recycleOne pushes a single node onto the free chain.
func (a *Arena) recycleOne(n *Node) {
	n.Left, n.Right, n.Label = a.free, nil, fib.NoLabel
	a.free = n
}

// Recycle returns a whole scratch subtree to the arena. Only trees
// built from this arena's nodes (or otherwise exclusively owned by
// the caller) may be recycled.
func (a *Arena) Recycle(n *Node) {
	for n != nil {
		r := n.Right
		a.Recycle(n.Left)
		a.recycleOne(n)
		n = r
	}
}

// LeafPushWithDefault is the arena-backed leaf_push(u, l) of §4.1: it
// builds the proper leaf-labeled scratch copy of the subtree with an
// inherited default label, drawing every node from the arena. The
// caller recycles the result once it has been consumed.
func (a *Arena) LeafPushWithDefault(n *Node, def uint32) *Node {
	return a.mergeLeaves(a.pushDown(n, def))
}

func (a *Arena) pushDown(n *Node, inherited uint32) *Node {
	if n == nil {
		return a.node(inherited, nil, nil)
	}
	cur := inherited
	if n.Label != fib.NoLabel {
		cur = n.Label
	}
	if n.IsLeaf() {
		return a.node(cur, nil, nil)
	}
	l := a.pushDown(n.Left, cur)
	r := a.pushDown(n.Right, cur)
	return a.node(fib.NoLabel, l, r)
}

// mergeLeaves collapses parents of identically-labeled leaf pairs
// bottom-up, in place: the parent becomes the merged leaf and the two
// child leaves go straight back to the arena.
func (a *Arena) mergeLeaves(n *Node) *Node {
	if n == nil || n.IsLeaf() {
		return n
	}
	n.Left = a.mergeLeaves(n.Left)
	n.Right = a.mergeLeaves(n.Right)
	if n.Left.IsLeaf() && n.Right.IsLeaf() && n.Left.Label == n.Right.Label {
		label := n.Left.Label
		a.recycleOne(n.Left)
		a.recycleOne(n.Right)
		n.Left, n.Right, n.Label = nil, nil, label
	}
	return n
}
