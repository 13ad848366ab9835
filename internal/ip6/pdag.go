package ip6

import (
	"fmt"

	"fibcomp/internal/pdag"
)

// Trie-folding over the IPv6 space. The folded region — hash-consing,
// reference counts, node recycling, the serialized form and the arena
// it is appended to — is pdag's, shared with the IPv4 DAG: none of it
// reads an address. What lives here is the 128-bit descent of §4.3:
// decompress the folded path down to the updated depth, replace the
// sub-trie there with a leaf-pushed copy of the control sub-trie, and
// re-compress bottom-up — O(W + 2^(W−plen)) visited nodes, which
// matters even more at W=128 than at 32 (refolding a whole λ-subtrie
// per update was measured ~30x slower on BGP-shaped v6 churn).

// DAG is an IPv6 prefix DAG: a pdag.Region, its control FIB and the
// 128-bit descent between them.
type DAG struct {
	pdag.Region

	control *Trie

	// scratch is the arena the refresh leaf-pushes its temporary
	// sub-trie copies into, so that steady-state IPv6 churn allocates
	// nothing.
	scratch arena
}

// Build folds an IPv6 table with leaf-push barrier lambda ∈ [0, 128].
func Build(t *Table, lambda int) (*DAG, error) {
	return fromTrie(nil, FromTable(t), lambda)
}

// FromTrie folds a prefix trie with leaf-push barrier lambda. The
// trie is deep-copied into the DAG's control FIB, so the caller's
// trie stays independent.
func FromTrie(tr *Trie, lambda int) (*DAG, error) {
	return fromTrie(nil, tr.Clone(), lambda)
}

// FromTrieShared is FromTrie folding into a shared space, exactly as
// pdag.FromTrieShared does for IPv4: one sub-trie index, one leaf
// table and one serving arena across every member. The caller must
// hold the space lock.
func FromTrieShared(sp *pdag.Space, tr *Trie, lambda int) (*DAG, error) {
	return fromTrie(sp, tr.Clone(), lambda)
}

// fromTrie folds control, which the DAG takes ownership of.
func fromTrie(sp *pdag.Space, control *Trie, lambda int) (*DAG, error) {
	if lambda < 0 || lambda > W {
		return nil, fmt.Errorf("ip6: barrier λ=%d out of [0,%d]", lambda, W)
	}
	d := &DAG{Region: pdag.NewRegion(sp, W, lambda), control: control}
	d.SetRoot(d.buildUp(control.Root, 0))
	return d, nil
}

func (d *DAG) buildUp(cn *Node, depth int) *pdag.Node {
	if cn == nil {
		return nil
	}
	if depth == d.Lambda {
		return d.foldPushed(cn, NoLabel)
	}
	n := d.Up()
	n.Label = cn.Label
	n.Left = d.buildUp(cn.Left, depth+1)
	n.Right = d.buildUp(cn.Right, depth+1)
	return n
}

// foldPushed leaf-pushes the control subtree into arena scratch,
// folds the copy into the DAG, and recycles the scratch.
func (d *DAG) foldPushed(cn *Node, def uint32) *pdag.Node {
	tmp := d.scratch.leafPushWithDefault(cn, def)
	res := d.fold(tmp)
	d.scratch.recycle(tmp)
	return res
}

func (d *DAG) fold(tn *Node) *pdag.Node {
	if tn.IsLeaf() {
		return d.Leaf(tn.Label)
	}
	l := d.fold(tn.Left)
	r := d.fold(tn.Right)
	return d.Cons(l, r)
}

// Lookup is standard trie lookup over 128 bits.
func (d *DAG) Lookup(addr Addr) uint32 {
	best := NoLabel
	n := d.Root()
	for q := 0; n != nil; q++ {
		if n.Label != NoLabel {
			best = n.Label
		}
		if q == W {
			break
		}
		if addr.Bit(q) == 0 {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return best
}

// Set inserts or changes a prefix → label association.
func (d *DAG) Set(a Addr, plen int, label uint32) error {
	if plen < 0 || plen > W {
		return fmt.Errorf("ip6: prefix length %d out of range", plen)
	}
	if label == NoLabel || label > MaxLabel {
		return fmt.Errorf("ip6: label %d out of range [1,%d]", label, MaxLabel)
	}
	a = Canonical(a, plen)
	d.control.Insert(a, plen, label)
	d.refresh(a, plen)
	return nil
}

// Delete removes an association, reporting whether it existed.
func (d *DAG) Delete(a Addr, plen int) bool {
	if plen < 0 || plen > W {
		return false
	}
	a = Canonical(a, plen)
	if !d.control.Delete(a, plen) {
		return false
	}
	d.refresh(a, plen)
	return true
}

// refresh re-synchronizes the DAG with the mutated control FIB: above
// the barrier by mirroring the path, at or below it by the
// incremental §4.3 patch of the affected folded sub-trie.
func (d *DAG) refresh(a Addr, plen int) {
	if plen < d.Lambda {
		d.SetRoot(d.syncUp(d.control.Root, d.Root(), a, 0, plen))
		return
	}
	if d.Lambda == 0 {
		d.SetRoot(d.foldFresh(d.control.Root, a, plen, d.Root()))
		return
	}
	cn := d.control.Root
	un := d.Root()
	un.Label = cn.Label
	for q := 0; q < d.Lambda-1; q++ {
		var cc *Node
		var uc **pdag.Node
		if a.Bit(q) == 0 {
			cc, uc = cn.Left, &un.Left
		} else {
			cc, uc = cn.Right, &un.Right
		}
		if cc == nil {
			// The control path was pruned by a delete: drop the mirror.
			d.DropUp(*uc)
			*uc = nil
			return
		}
		if *uc == nil {
			*uc = d.Up()
		}
		cn, un = cc, *uc
		un.Label = cn.Label
	}
	// un sits at depth λ-1; its child along the path is a folded root.
	var cc *Node
	var uc **pdag.Node
	if a.Bit(d.Lambda-1) == 0 {
		cc, uc = cn.Left, &un.Left
	} else {
		cc, uc = cn.Right, &un.Right
	}
	if cc == nil {
		d.Drop(*uc)
		*uc = nil
		return
	}
	*uc = d.foldFresh(cc, a, plen, *uc)
}

// foldFresh produces the folded sub-trie for control node cn (at
// depth λ) after an update at depth plen, reusing as much of the old
// folded structure as possible. Ownership of old's reference is
// consumed; the returned node carries one reference.
func (d *DAG) foldFresh(cn *Node, a Addr, plen int, old *pdag.Node) *pdag.Node {
	if old == nil || plen == d.Lambda {
		fresh := d.foldPushed(cn, NoLabel)
		d.Drop(old)
		return fresh
	}
	return d.patch(old, cn, a, d.Lambda, plen, NoLabel)
}

// patch is the §4.3 update over 128 bits, a direct mirror of the IPv4
// DAG's: descend from depth q toward the updated depth plen,
// decompressing the path, replace the sub-trie at depth plen with a
// leaf-pushed copy of the control sub-trie under the default label in
// force, and re-compress bottom-up. def tracks the label leaf-pushing
// put in force here; an expanded coalesced leaf's label must NOT
// become the on-path default (it may embody a deeper label the
// control mutation just removed — still-present labels are
// re-collected from cn.Label level by level).
func (d *DAG) patch(v *pdag.Node, cn *Node, a Addr, q, plen int, def uint32) *pdag.Node {
	if cn != nil && cn.Label != NoLabel {
		def = cn.Label
	}
	if q == plen {
		fresh := d.foldPushed(cn, def)
		d.Drop(v)
		return fresh
	}
	vl, vr := d.Split(v)
	bit := a.Bit(q)
	var cc *Node
	if cn != nil {
		if bit == 0 {
			cc = cn.Left
		} else {
			cc = cn.Right
		}
	}
	if bit == 0 {
		vl = d.patch(vl, cc, a, q+1, plen, def)
	} else {
		vr = d.patch(vr, cc, a, q+1, plen, def)
	}
	res := d.Cons(vl, vr)
	d.Drop(v)
	return res
}

func (d *DAG) syncUp(cn *Node, un *pdag.Node, a Addr, q, plen int) *pdag.Node {
	if cn == nil {
		d.DropUp(un)
		return nil
	}
	if un == nil {
		un = d.Up()
	}
	un.Label = cn.Label
	if q == plen {
		return un
	}
	if a.Bit(q) == 0 {
		un.Left = d.syncUp(cn.Left, un.Left, a, q+1, plen)
	} else {
		un.Right = d.syncUp(cn.Right, un.Right, a, q+1, plen)
	}
	return un
}

// Control exposes the control FIB (read-only).
func (d *DAG) Control() *Trie { return d.control }
