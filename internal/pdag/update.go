package pdag

import (
	"fmt"

	"fibcomp/internal/fib"
	"fibcomp/internal/trie"
)

// Set inserts or changes the association for prefix addr/plen (the
// update operation of §4.3). The control FIB is patched first; then,
// if the prefix lies above the barrier only a plain-trie label changes
// (O(W)); otherwise the DAG is decompressed along the path, the
// sub-trie at depth plen is replaced by a freshly leaf-pushed copy of
// the control sub-trie, and the path is re-compressed bottom-up,
// visiting O(W + 2^(W-plen)) nodes as in Theorem 3.
func (d *DAG) Set(addr uint32, plen int, label uint32) error {
	if plen < 0 || plen > d.Width {
		return fmt.Errorf("pdag: prefix length %d out of range [0,%d]", plen, d.Width)
	}
	if label == fib.NoLabel || label > fib.MaxLabel {
		return fmt.Errorf("pdag: label %d out of range [1,%d]", label, fib.MaxLabel)
	}
	addr &= fib.Mask(plen)
	d.control.Insert(addr, plen, label)
	d.refresh(addr, plen)
	return nil
}

// Delete removes the association for prefix addr/plen, reporting
// whether it was present.
func (d *DAG) Delete(addr uint32, plen int) bool {
	if plen < 0 || plen > d.Width {
		return false
	}
	addr &= fib.Mask(plen)
	if !d.control.Delete(addr, plen) {
		return false
	}
	d.refresh(addr, plen)
	return true
}

// refresh re-synchronizes the DAG with the (already mutated) control
// FIB along the path of addr, after a change at depth plen.
func (d *DAG) refresh(addr uint32, plen int) {
	if plen < d.Lambda {
		d.syncUp(addr, plen)
		return
	}
	d.rebuildBelow(addr, plen)
}

// syncUp mirrors the control path into the plain region for an update
// strictly above the barrier: labels are copied and nodes are created
// or dropped to match the control trie. No folded structure changes.
func (d *DAG) syncUp(addr uint32, plen int) {
	d.root = d.syncUpRec(d.control.Root, d.root, addr, 0, plen)
}

func (d *DAG) syncUpRec(cn *trie.Node, un *Node, addr uint32, q, plen int) *Node {
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
	if fib.Bit(addr, q) == 0 {
		un.Left = d.syncUpRec(cn.Left, un.Left, addr, q+1, plen)
	} else {
		un.Right = d.syncUpRec(cn.Right, un.Right, addr, q+1, plen)
	}
	return un
}

// rebuildBelow handles an update at depth plen ≥ λ: walk the plain
// region to the barrier (mirroring the control path), then patch the
// folded sub-trie.
func (d *DAG) rebuildBelow(addr uint32, plen int) {
	if d.Lambda == 0 {
		d.root = d.foldFresh(d.control.Root, addr, plen, d.root)
		return
	}
	cn := d.control.Root
	un := d.root
	un.Label = cn.Label
	for q := 0; q < d.Lambda-1; q++ {
		var cc *trie.Node
		var uc **Node
		if fib.Bit(addr, q) == 0 {
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
	var cc *trie.Node
	var uc **Node
	if fib.Bit(addr, d.Lambda-1) == 0 {
		cc, uc = cn.Left, &un.Left
	} else {
		cc, uc = cn.Right, &un.Right
	}
	if cc == nil {
		d.Drop(*uc)
		*uc = nil
		return
	}
	*uc = d.foldFresh(cc, addr, plen, *uc)
}

// foldFresh produces the folded sub-trie for control node cn (at depth
// λ) after an update at depth plen, reusing as much of the old folded
// structure as possible. Ownership of old's reference is consumed; the
// returned node carries one reference.
func (d *DAG) foldFresh(cn *trie.Node, addr uint32, plen int, old *Node) *Node {
	if old == nil || plen == d.Lambda {
		fresh := d.foldPushed(cn, fib.NoLabel)
		d.Drop(old)
		return fresh
	}
	return d.patch(old, cn, addr, d.Lambda, plen, fib.NoLabel)
}

// patch is the heart of the update (§4.3): descend from depth q toward
// the updated depth plen, decompressing the path (sharing is broken by
// re-acquiring canonical nodes on the way back up), replace the
// sub-trie at depth plen with a leaf-pushed copy of the control
// sub-trie under the default label in force, and re-compress
// bottom-up. def tracks the label that leaf-pushing put in force at
// this point of the folded region.
//
// v is the folded node currently at depth q (one reference owned by
// the caller, consumed); cn is the control node at depth q (may be nil
// after a delete pruned the path). The returned node carries one
// reference.
func (d *DAG) patch(v *Node, cn *trie.Node, addr uint32, q, plen int, def uint32) *Node {
	if cn != nil && cn.Label != fib.NoLabel {
		def = cn.Label
	}
	if q == plen {
		fresh := d.foldPushed(cn, def)
		d.Drop(v)
		return fresh
	}
	// A coalesced leaf v expands into two leaves of its label, which is
	// right for the untouched sibling half; but that label must NOT
	// become the default of the on-path descent — it may incorporate a
	// deeper label the control mutation just removed, and def has to
	// keep tracking the *mutated* control path (labels still present
	// are re-collected from cn.Label level by level).
	vl, vr := d.Split(v)
	bit := fib.Bit(addr, q)
	var cc *trie.Node
	if cn != nil {
		if bit == 0 {
			cc = cn.Left
		} else {
			cc = cn.Right
		}
	}
	if bit == 0 {
		vl = d.patch(vl, cc, addr, q+1, plen, def)
	} else {
		vr = d.patch(vr, cc, addr, q+1, plen, def)
	}
	res := d.Cons(vl, vr)
	d.Drop(v)
	return res
}
