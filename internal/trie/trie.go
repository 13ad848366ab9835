// Package trie implements the binary prefix tree of §2 — the venerable
// FIB representation IP routers have used for decades — together with
// the leaf-pushing normalization that turns it into the proper,
// binary, leaf-labeled trie on which the paper's entropy bounds and
// both compressors (XBW-b and trie-folding) are defined.
//
// One trie serves every address width: it is keyed by a 128-bit Key,
// an IPv4 address sitting in the top 32 bits, and the §2 walks read the
// key only through Key.Bit. The uint32 methods are the IPv4 spelling of
// the Key ones.
package trie

import (
	"fmt"
	"strings"

	"fibcomp/internal/fib"
)

// keyBits is the width of a Key: the deepest a prefix can reach.
const keyBits = 128

// Key is an address of up to 128 bits, big-endian across (Hi, Lo).
// A narrower address occupies the top bits (V4), so Hi>>(64-k) is an
// address's top k bits whatever its width.
type Key struct {
	Hi, Lo uint64
}

// V4 is the key of an IPv4 address.
func V4(addr uint32) Key { return Key{Hi: uint64(addr) << 32} }

// Bit extracts key bit q (0 = MSB of Hi), matching fib.Bit on V4 keys.
// Written as a select and a masked shift, it compiles to a conditional
// move and one bit test, with no branch.
func (k Key) Bit(q int) uint32 {
	w := k.Hi
	if q >= 64 {
		w = k.Lo
	}
	return uint32(w>>(uint(63-q)&63)) & 1
}

// Masked clears the bits of k below its first plen.
func (k Key) Masked(plen int) Key {
	switch {
	case plen <= 0:
		return Key{}
	case plen < 64:
		return Key{Hi: k.Hi &^ (^uint64(0) >> uint(plen))}
	case plen < keyBits:
		return Key{Hi: k.Hi, Lo: k.Lo &^ (^uint64(0) >> uint(plen-64))}
	}
	return k
}

// Node is a binary trie node. Label 0 (fib.NoLabel) means "no label".
// shared marks a node that more than one trie may reach (Share): such
// a node is never written — a writer replaces it with a private copy
// first (own) — and the mark is never cleared. It fits the padding
// after Label, so a node stays 24 bytes.
type Node struct {
	Left, Right *Node
	Label       uint32
	shared      bool
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// child is the child a key bit selects.
func (n *Node) child(bit uint32) *Node {
	if bit == 0 {
		return n.Left
	}
	return n.Right
}

// Trie is a binary prefix tree over the Key space. Nodes pruned by
// Delete are kept on an internal freelist and reused by later Inserts,
// so steady route churn against a long-lived trie (the control FIB of
// a prefix DAG) does not allocate.
type Trie struct {
	Root  *Node
	arena Arena
}

// New returns an empty trie (a single unlabeled root).
func New() *Trie { return &Trie{Root: &Node{}} }

// FromTable builds a trie from a FIB table. Later duplicates win,
// matching fib.Table.Dedup semantics.
func FromTable(t *fib.Table) *Trie {
	tr := New()
	for _, e := range t.Entries {
		tr.Insert(e.Addr, e.Len, e.NextHop)
	}
	return tr
}

// Insert sets the label of IPv4 prefix addr/plen.
func (t *Trie) Insert(addr uint32, plen int, label uint32) { t.InsertKey(V4(addr), plen, label) }

// Delete removes the label of IPv4 prefix addr/plen (see DeleteKey).
func (t *Trie) Delete(addr uint32, plen int) bool { return t.DeleteKey(V4(addr), plen) }

// Get reports the label stored at exactly IPv4 prefix addr/plen.
func (t *Trie) Get(addr uint32, plen int) uint32 { return t.GetKey(V4(addr), plen) }

// Lookup performs longest prefix match on an IPv4 address.
func (t *Trie) Lookup(addr uint32) uint32 { label, _ := t.lookup(V4(addr)); return label }

// LookupSteps is Lookup instrumented to also report the number of
// nodes visited, used by the depth statistics of Table 2.
func (t *Trie) LookupSteps(addr uint32) (label uint32, steps int) { return t.lookup(V4(addr)) }

// InsertKey sets the label of prefix k/plen, creating path nodes as
// needed.
func (t *Trie) InsertKey(k Key, plen int, label uint32) { t.own(k, plen).Label = label }

// own walks to prefix k/plen, creating the missing path nodes and
// replacing each shared one with a private copy, and returns the node
// at plen: the path is then this trie's alone to write. On a trie that
// shares nothing it costs one flag test per level.
func (t *Trie) own(k Key, plen int) *Node {
	n := t.Root
	for q := 0; q < plen; q++ {
		c := &n.Left
		if k.Bit(q) != 0 {
			c = &n.Right
		}
		if *c == nil {
			*c = t.arena.node(fib.NoLabel, nil, nil)
		} else if (*c).shared {
			*c = t.arena.copyOf(*c)
		}
		n = *c
	}
	return n
}

// DeleteKey removes the label of prefix k/plen and prunes the unlabeled
// chain that leaves, recycling it into later Inserts. It reports whether
// a label was present.
func (t *Trie) DeleteKey(k Key, plen int) bool {
	// keep is the deepest node above the prefix that pruning stops at —
	// the root, a labeled node or a fork — and kq its depth: below it
	// the path is a chain of single unlabeled children.
	n, keep, kq, shared := t.Root, t.Root, 0, false
	for q := 0; q < plen; q++ {
		if n.Label != fib.NoLabel || (n.Left != nil && n.Right != nil) {
			keep, kq = n, q
		}
		if n = n.child(k.Bit(q)); n == nil {
			return false
		}
		shared = shared || n.shared
	}
	if n.Label == fib.NoLabel {
		return false
	}
	if shared {
		// Copy the path; the second descent meets no shared node.
		t.own(k, plen)
		return t.DeleteKey(k, plen)
	}
	n.Label = fib.NoLabel
	if !n.IsLeaf() || n == keep {
		return true
	}
	c := keep.child(k.Bit(kq))
	if k.Bit(kq) == 0 {
		keep.Left = nil
	} else {
		keep.Right = nil
	}
	for c != nil {
		next := c.Left
		if next == nil {
			next = c.Right
		}
		t.arena.recycleOne(c)
		c = next
	}
	return true
}

// GetKey reports the label stored at exactly prefix k/plen
// (fib.NoLabel when absent) — the exact-match complement of Lookup,
// O(plen) with no allocation. The serving engine uses it to detect
// no-op route updates (a re-announcement of the route already
// installed) before paying for a DAG patch and republish.
func (t *Trie) GetKey(k Key, plen int) uint32 {
	n := t.Root
	for q := 0; q < plen; q++ {
		if n = n.child(k.Bit(q)); n == nil {
			return fib.NoLabel
		}
	}
	return n.Label
}

// LookupKey performs longest prefix match: walk the bits of k and
// return the last label seen (§2). It runs in O(W).
func (t *Trie) LookupKey(k Key) uint32 { label, _ := t.lookup(k); return label }

func (t *Trie) lookup(k Key) (label uint32, steps int) {
	n := t.Root
	for q := 0; n != nil; q++ {
		steps++
		if n.Label != fib.NoLabel {
			label = n.Label
		}
		if q == keyBits {
			break
		}
		n = n.child(k.Bit(q))
	}
	return label, steps
}

// Share points t at ref's node for every subtree of t that equals
// ref's at the same key position, marking that node shared, so the two
// tries hold it once; t's nodes it replaces go to the garbage
// collector, and the roots stay apart. One bottom-up walk over both,
// O(|t|), with no index: equal subtrees can only sit at equal
// positions. The writers of either trie then copy before they write.
func (t *Trie) Share(ref *Trie) { share(t.Root, ref.Root) }

// share points each child of a that equals b's child at b's and
// reports whether the subtrees of a and b are equal. a is private.
func share(a, b *Node) bool {
	l, r := shareChild(&a.Left, b.Left), shareChild(&a.Right, b.Right)
	return l && r && a.Label == b.Label
}

// shareChild is share one level down: a child of a that is itself
// shared (reachable from a third trie) is never written, so it is not
// descended into.
func shareChild(c **Node, b *Node) bool {
	switch a := *c; {
	case a == b:
		return true
	case a == nil || b == nil || a.shared || !share(a, b):
		return false
	}
	b.shared, *c = true, b
	return true
}

// Clone deep-copies the trie.
func (t *Trie) Clone() *Trie { return &Trie{Root: CloneNode(t.Root)} }

// CloneNode deep-copies a subtree.
func CloneNode(n *Node) *Node {
	if n == nil {
		return nil
	}
	return &Node{Left: CloneNode(n.Left), Right: CloneNode(n.Right), Label: n.Label}
}

// MaxDepth reports the deepest node's depth (root = 0).
func (t *Trie) MaxDepth() int { return maxDepth(t.Root) }

func maxDepth(n *Node) int {
	if n == nil {
		return -1
	}
	if n.IsLeaf() {
		return 0
	}
	l, r := maxDepth(n.Left), maxDepth(n.Right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Entries reconstructs the (prefix, label) pairs of an IPv4 trie, in
// preorder.
func (t *Trie) Entries() []fib.Entry {
	var out []fib.Entry
	var walk func(n *Node, addr uint32, depth int)
	walk = func(n *Node, addr uint32, depth int) {
		if n == nil {
			return
		}
		if n.Label != fib.NoLabel {
			out = append(out, fib.Entry{Addr: addr, Len: depth, NextHop: n.Label})
		}
		walk(n.Left, addr, depth+1)
		walk(n.Right, addr|1<<uint(fib.W-1-depth), depth+1)
	}
	walk(t.Root, 0, 0)
	return out
}

// String renders the trie for debugging; labels in brackets.
func (t *Trie) String() string {
	var b strings.Builder
	var walk func(n *Node, prefix string)
	walk = func(n *Node, prefix string) {
		if n == nil {
			return
		}
		if n.Label != fib.NoLabel {
			fmt.Fprintf(&b, "%s[%d] ", prefixOrRoot(prefix), n.Label)
		}
		walk(n.Left, prefix+"0")
		walk(n.Right, prefix+"1")
	}
	walk(t.Root, "")
	return strings.TrimSpace(b.String())
}

func prefixOrRoot(p string) string {
	if p == "" {
		return "-"
	}
	return p
}
