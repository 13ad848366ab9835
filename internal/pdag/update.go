package pdag

import (
	"fmt"

	"fibcomp/internal/fib"
	"fibcomp/internal/trie"
)

// Descent is a region kept in step with its control FIB — the update
// of §4.3 — written once for every key width: it reads a key only
// through trie.Key.Bit and bounds its walks by Width, the way Theorem 3's
// O(W + 2^(W−p)) names the width and nothing else about the address.
// DAG is the descent over 32-bit keys and ip6.DAG the one over 128;
// the sharded engine holds one per shard of either family.
type Descent struct {
	Region

	control *trie.Trie

	// scratch is the arena the temporary leaf-pushed control copies
	// are drawn from, so that steady-state churn allocates nothing.
	scratch trie.Arena
}

// NewDescent folds control — which the descent takes ownership of —
// with leaf-push barrier lambda ∈ [0, width], into sp when that is
// non-nil (the caller then holds the space lock) and into a private
// space of its own otherwise.
func NewDescent(sp *Space, control *trie.Trie, width, lambda int) (*Descent, error) {
	if lambda < 0 || lambda > width {
		return nil, fmt.Errorf("pdag: barrier λ=%d out of range [0,%d]", lambda, width)
	}
	d := &Descent{Region: newRegion(sp, width, lambda), control: control}
	d.root = d.buildUp(control.Root, 0)
	return d, nil
}

// Control exposes the control FIB. Callers must treat it as
// read-only; all mutations must go through SetKey and DeleteKey so the
// region stays in sync.
func (d *Descent) Control() *trie.Trie { return d.control }

// LookupKey performs longest prefix match: follow the path traced by
// the key bits and return the last label found (§4.1), with the number
// of nodes visited. Folded leaves with the empty label fall through to
// whatever label was in force above the barrier, which is why
// trie_fold clears lp(⊥). O(W).
func (d *Descent) LookupKey(k trie.Key) (label uint32, steps int) {
	n := d.root
	for q := 0; n != nil; q++ {
		steps++
		if n.Label != fib.NoLabel {
			label = n.Label
		}
		if q == d.Width {
			break
		}
		if k.Bit(q) == 0 {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return label, steps
}

// SetKey inserts or changes the association for prefix k/plen (the
// update operation of §4.3). The control FIB is patched first; then,
// if the prefix lies above the barrier only a plain-trie label changes
// (O(W)); otherwise the DAG is decompressed along the path, the
// sub-trie at depth plen is replaced by a freshly leaf-pushed copy of
// the control sub-trie, and the path is re-compressed bottom-up,
// visiting O(W + 2^(W-plen)) nodes as in Theorem 3.
func (d *Descent) SetKey(k trie.Key, plen int, label uint32) error {
	if plen < 0 || plen > d.Width {
		return fmt.Errorf("pdag: prefix length %d out of range [0,%d]", plen, d.Width)
	}
	if label == fib.NoLabel || label > fib.MaxLabel {
		return fmt.Errorf("pdag: label %d out of range [1,%d]", label, fib.MaxLabel)
	}
	k = k.Masked(plen)
	d.control.InsertKey(k, plen, label)
	d.refresh(k, plen)
	return nil
}

// DeleteKey removes the association for prefix k/plen, reporting
// whether it was present.
func (d *Descent) DeleteKey(k trie.Key, plen int) bool {
	if plen < 0 || plen > d.Width {
		return false
	}
	k = k.Masked(plen)
	if !d.control.DeleteKey(k, plen) {
		return false
	}
	d.refresh(k, plen)
	return true
}

// buildUp mirrors the control trie above the barrier and folds every
// λ-level sub-trie (trie_fold of §4.1).
func (d *Descent) buildUp(cn *trie.Node, depth int) *Node {
	if cn == nil {
		return nil
	}
	if depth == d.Lambda {
		return d.foldPushed(cn, fib.NoLabel)
	}
	n := d.up()
	n.Label = cn.Label
	n.Left = d.buildUp(cn.Left, depth+1)
	n.Right = d.buildUp(cn.Right, depth+1)
	return n
}

// foldPushed leaf-pushes the control subtree into arena scratch, folds
// the copy into the DAG, and recycles the scratch.
func (d *Descent) foldPushed(cn *trie.Node, def uint32) *Node {
	tmp := d.scratch.LeafPushWithDefault(cn, def)
	res := d.fold(tmp)
	d.scratch.Recycle(tmp)
	return res
}

// fold compresses a proper leaf-labeled trie bottom-up into the DAG
// (the compress routine of §4.1) and returns the canonical shared
// node, carrying one reference for the caller.
func (d *Descent) fold(tn *trie.Node) *Node {
	if tn.IsLeaf() {
		return d.leaf(tn.Label)
	}
	l := d.fold(tn.Left)
	r := d.fold(tn.Right)
	return d.cons(l, r)
}

// refresh re-synchronizes the DAG with the (already mutated) control
// FIB along the path of k, after a change at depth plen: above the
// barrier by mirroring the path, at or below it by the incremental
// §4.3 patch of the affected folded sub-trie.
func (d *Descent) refresh(k trie.Key, plen int) {
	if plen < d.Lambda {
		d.root = d.syncUp(d.control.Root, d.root, k, 0, plen)
		return
	}
	if d.Lambda == 0 {
		d.root = d.foldFresh(d.control.Root, k, plen, d.root)
		return
	}
	// Walk the plain region to the barrier, mirroring the control path.
	cn := d.control.Root
	un := d.root
	un.Label = cn.Label
	for q := 0; q < d.Lambda-1; q++ {
		var cc *trie.Node
		var uc **Node
		if k.Bit(q) == 0 {
			cc, uc = cn.Left, &un.Left
		} else {
			cc, uc = cn.Right, &un.Right
		}
		if cc == nil {
			// The control path was pruned by a delete: drop the mirror.
			d.dropUp(*uc)
			*uc = nil
			return
		}
		if *uc == nil {
			*uc = d.up()
		}
		cn, un = cc, *uc
		un.Label = cn.Label
	}
	// un sits at depth λ-1; its child along the path is a folded root.
	var cc *trie.Node
	var uc **Node
	if k.Bit(d.Lambda-1) == 0 {
		cc, uc = cn.Left, &un.Left
	} else {
		cc, uc = cn.Right, &un.Right
	}
	if cc == nil {
		d.drop(*uc)
		*uc = nil
		return
	}
	*uc = d.foldFresh(cc, k, plen, *uc)
}

// syncUp mirrors the control path into the plain region for an update
// strictly above the barrier: labels are copied and nodes are created
// or dropped to match the control trie. No folded structure changes.
func (d *Descent) syncUp(cn *trie.Node, un *Node, k trie.Key, q, plen int) *Node {
	if cn == nil {
		d.dropUp(un)
		return nil
	}
	if un == nil {
		un = d.up()
	}
	un.Label = cn.Label
	if q == plen {
		return un
	}
	if k.Bit(q) == 0 {
		un.Left = d.syncUp(cn.Left, un.Left, k, q+1, plen)
	} else {
		un.Right = d.syncUp(cn.Right, un.Right, k, q+1, plen)
	}
	return un
}

// foldFresh produces the folded sub-trie for control node cn (at depth
// λ) after an update at depth plen, reusing as much of the old folded
// structure as possible. Ownership of old's reference is consumed; the
// returned node carries one reference.
func (d *Descent) foldFresh(cn *trie.Node, k trie.Key, plen int, old *Node) *Node {
	if old == nil || plen == d.Lambda {
		fresh := d.foldPushed(cn, fib.NoLabel)
		d.drop(old)
		return fresh
	}
	return d.patch(old, cn, k, d.Lambda, plen, fib.NoLabel)
}

// patch is the heart of the update (§4.3): descend from depth q toward
// the updated depth plen, decompressing the path (sharing is broken by
// re-acquiring canonical nodes on the way back up), replace the
// sub-trie at depth plen with a leaf-pushed copy of the control
// sub-trie under the default label in force, and re-compress
// bottom-up. def tracks the label that leaf-pushing put in force at
// this point of the folded region. (Refolding the whole λ-level
// sub-trie per update instead was measured ~30× slower on BGP-shaped
// IPv6 churn, where W − λ is 112.)
//
// v is the folded node currently at depth q (one reference owned by
// the caller, consumed); cn is the control node at depth q (may be nil
// after a delete pruned the path). The returned node carries one
// reference.
func (d *Descent) patch(v *Node, cn *trie.Node, k trie.Key, q, plen int, def uint32) *Node {
	if cn != nil && cn.Label != fib.NoLabel {
		def = cn.Label
	}
	if q == plen {
		fresh := d.foldPushed(cn, def)
		d.drop(v)
		return fresh
	}
	// A coalesced leaf v expands into two leaves of its label, which is
	// right for the untouched sibling half; but that label must NOT
	// become the default of the on-path descent — it may incorporate a
	// deeper label the control mutation just removed, and def has to
	// keep tracking the *mutated* control path (labels still present
	// are re-collected from cn.Label level by level).
	vl, vr := d.split(v)
	bit := k.Bit(q)
	var cc *trie.Node
	if cn != nil {
		if bit == 0 {
			cc = cn.Left
		} else {
			cc = cn.Right
		}
	}
	if bit == 0 {
		vl = d.patch(vl, cc, k, q+1, plen, def)
	} else {
		vr = d.patch(vr, cc, k, q+1, plen, def)
	}
	res := d.cons(vl, vr)
	d.drop(v)
	return res
}
