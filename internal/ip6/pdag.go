package ip6

import "fmt"

// Trie-folding over the IPv6 space. The folded region uses the same
// hash-consing with reference counts as the IPv4 implementation, and
// the update path the same incremental §4.3 patch: decompress the
// folded path down to the updated depth, replace the sub-trie there
// with a leaf-pushed copy of the control sub-trie, and re-compress
// bottom-up — O(W + 2^(W−plen)) visited nodes, which matters even
// more at W=128 than at 32 (refolding a whole λ-subtrie per update
// was measured ~30x slower on BGP-shaped v6 churn).

const (
	kindUp byte = iota
	kindInt
	kindLeaf
)

const leafIDBase = uint64(1) << 40

type dnode struct {
	left, right *dnode
	label       uint32
	id          uint64
	ref         int32
	kind        byte

	// serialIdx/serialEpoch are SerializeInto scratch: the blob index
	// assigned to this folded interior node, valid only while
	// serialEpoch matches the DAG's (see serial.go).
	serialEpoch uint64
	serialIdx   uint32
}

// DAG is an IPv6 prefix DAG with its control FIB.
type DAG struct {
	Lambda  int
	control *Trie
	root    *dnode
	sub     map[[2]uint64]*dnode
	leaves  map[uint32]*dnode
	nextID  uint64

	// space is non-nil for a DAG folded into a shared hash-cons
	// universe (FromTrieShared): sub and leaves alias the space's
	// maps, interior ids draw from the space-wide counter, and the
	// serialization epoch counter is space-wide so a stamp written
	// through one member DAG can never match an epoch drawn by
	// another on a shared node.
	space *Space6

	// SerializeInto scratch (see serial.go): the current stamping
	// epoch, the folded interior nodes in index order, and the DFS
	// stack — kept on the DAG so steady-churn republishing reuses
	// them without allocating.
	serialEpoch uint64
	serialList  []*dnode
	serialStack []*dnode

	// Dirty-subtree tracking (see serial.go): mutGen counts control
	// mutations, lastMut records per root-stride group the generation
	// that last touched it, and geo1 holds the blob's stable group
	// layout so a republish re-emits only the groups mutated since the
	// target buffer was last written.
	mutGen  uint64
	lastMut []uint64
	geo1    serialGeom
	geoSeq  uint64

	// Per-serialize group scratch: the subtree hanging at each group's
	// path with the default label in force there (groupPlan), and the
	// index allocation cursor and its region bound.
	groupNode   []*dnode
	groupDef    []uint32
	serialBase  uint32
	serialLimit uint32

	// Update-path recyclers, mirroring the IPv4 DAG: released DAG
	// nodes chain through freeNode (linked via left) and feed later
	// acquires; scratch is the arena the refresh leaf-pushes its
	// temporary sub-trie copies into. Together they keep steady-state
	// IPv6 churn — DAG patch plus republish — at zero allocations.
	freeNode *dnode
	scratch  arena
}

// newDnode pops a recycled node or allocates one. A recycled node
// keeps the interior id of its previous life (leaf ids live in their
// own namespace above leafIDBase and are dropped): ids only need to
// be unique among live nodes, and an id that travels with its
// physical node keeps the hash-consing map's key set bounded under
// steady churn — monotonically fresh ids were measured to churn the
// map into periodic rehash allocations.
func (d *DAG) newDnode() *dnode {
	n := d.freeNode
	if n == nil {
		return &dnode{}
	}
	d.freeNode = n.left
	id := n.id
	if id >= leafIDBase {
		id = 0
	}
	*n = dnode{id: id}
	return n
}

// recycleDnode pushes a dead node onto the free chain. The stale
// serial stamp is harmless: every SerializeInto bumps the epoch.
func (d *DAG) recycleDnode(n *dnode) {
	*n = dnode{left: d.freeNode}
	d.freeNode = n
}

// allocID draws the next interior-node id: from the shared space's
// counter when the DAG is a member of one (ids key the shared cons
// index, so per-DAG counters would collide), else from the DAG's own.
func (d *DAG) allocID() uint64 {
	if d.space != nil {
		d.space.nextID++
		return d.space.nextID
	}
	d.nextID++
	return d.nextID
}

// nextEpoch starts a fresh stamping epoch for one group emission. For
// a space-member DAG the counter is space-wide: with per-DAG counters,
// tenant B's counter could numerically reach the value tenant A
// stamped on a node both tables share, making A's index look valid
// inside B's emission.
func (d *DAG) nextEpoch() {
	if d.space != nil {
		d.space.epoch++
		d.serialEpoch = d.space.epoch
		return
	}
	d.serialEpoch++
}

// Build folds an IPv6 table with leaf-push barrier lambda ∈ [0, 128].
func Build(t *Table, lambda int) (*DAG, error) {
	if lambda < 0 || lambda > W {
		return nil, fmt.Errorf("ip6: barrier λ=%d out of [0,%d]", lambda, W)
	}
	d := &DAG{
		Lambda:  lambda,
		control: FromTable(t),
		sub:     map[[2]uint64]*dnode{},
		leaves:  map[uint32]*dnode{},
	}
	d.lastMut = make([]uint64, 1<<uint(d.groupBits()))
	d.root = d.buildUp(d.control.Root, 0)
	return d, nil
}

// FromTrie folds a prefix trie with leaf-push barrier lambda. The
// trie is deep-copied into the DAG's control FIB, so the caller's
// trie stays independent — the contract shardfib relies on when it
// refolds a shard's control trie for an unserializable barrier.
func FromTrie(tr *Trie, lambda int) (*DAG, error) {
	if lambda < 0 || lambda > W {
		return nil, fmt.Errorf("ip6: barrier λ=%d out of [0,%d]", lambda, W)
	}
	d := &DAG{
		Lambda:  lambda,
		control: tr.Clone(),
		sub:     map[[2]uint64]*dnode{},
		leaves:  map[uint32]*dnode{},
	}
	d.lastMut = make([]uint64, 1<<uint(d.groupBits()))
	d.root = d.buildUp(d.control.Root, 0)
	return d, nil
}

func (d *DAG) buildUp(cn *Node, depth int) *dnode {
	if cn == nil {
		return nil
	}
	if depth == d.Lambda {
		return d.foldPushed(cn, NoLabel)
	}
	n := d.newDnode()
	n.kind, n.label = kindUp, cn.Label
	n.left = d.buildUp(cn.Left, depth+1)
	n.right = d.buildUp(cn.Right, depth+1)
	return n
}

// foldPushed leaf-pushes the control subtree into arena scratch,
// folds the copy into the DAG, and recycles the scratch.
func (d *DAG) foldPushed(cn *Node, def uint32) *dnode {
	tmp := d.scratch.leafPushWithDefault(cn, def)
	res := d.fold(tmp)
	d.scratch.recycle(tmp)
	return res
}

func (d *DAG) fold(tn *Node) *dnode {
	if tn.IsLeaf() {
		return d.acquireLeaf(tn.Label)
	}
	l := d.fold(tn.Left)
	r := d.fold(tn.Right)
	return d.acquireNode(l, r)
}

func (d *DAG) acquireLeaf(label uint32) *dnode {
	if n, ok := d.leaves[label]; ok {
		n.ref++
		return n
	}
	n := d.newDnode()
	n.kind, n.label, n.id, n.ref = kindLeaf, label, leafIDBase|uint64(label), 1
	d.leaves[label] = n
	return n
}

func (d *DAG) acquireNode(l, r *dnode) *dnode {
	if l == r && l.kind == kindLeaf {
		d.release(r)
		return l
	}
	key := [2]uint64{l.id, r.id}
	if n, ok := d.sub[key]; ok {
		n.ref++
		d.release(l)
		d.release(r)
		return n
	}
	n := d.newDnode()
	if n.id == 0 {
		n.id = d.allocID()
	}
	n.kind, n.left, n.right, n.ref = kindInt, l, r, 1
	d.sub[key] = n
	return n
}

func (d *DAG) release(n *dnode) {
	if n == nil || n.kind == kindUp {
		return
	}
	n.ref--
	if n.ref > 0 {
		return
	}
	if n.kind == kindLeaf {
		delete(d.leaves, n.label)
		d.recycleDnode(n)
		return
	}
	delete(d.sub, [2]uint64{n.left.id, n.right.id})
	l, r := n.left, n.right
	d.recycleDnode(n)
	d.release(l)
	d.release(r)
}

// Lookup is standard trie lookup over 128 bits.
func (d *DAG) Lookup(addr Addr) uint32 {
	best := NoLabel
	n := d.root
	for q := 0; n != nil; q++ {
		if n.label != NoLabel {
			best = n.label
		}
		if q == W {
			break
		}
		if addr.Bit(q) == 0 {
			n = n.left
		} else {
			n = n.right
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
// incremental §4.3 patch of the affected folded sub-trie. The mutation
// is first recorded against the root-stride groups it covers so the
// serializers can re-emit only the touched regions.
func (d *DAG) refresh(a Addr, plen int) {
	d.markDirty(a, plen)
	if plen < d.Lambda {
		d.root = d.syncUp(d.control.Root, d.root, a, 0, plen)
		return
	}
	if d.Lambda == 0 {
		d.root = d.foldFresh(d.control.Root, a, plen, d.root)
		return
	}
	cn := d.control.Root
	un := d.root
	un.label = cn.Label
	for q := 0; q < d.Lambda-1; q++ {
		var cc *Node
		var uc **dnode
		if a.Bit(q) == 0 {
			cc, uc = cn.Left, &un.left
		} else {
			cc, uc = cn.Right, &un.right
		}
		if cc == nil {
			d.dropUp(*uc)
			*uc = nil
			return
		}
		if *uc == nil {
			nn := d.newDnode()
			nn.kind = kindUp
			*uc = nn
		}
		cn, un = cc, *uc
		un.label = cn.Label
	}
	var cc *Node
	var uc **dnode
	if a.Bit(d.Lambda-1) == 0 {
		cc, uc = cn.Left, &un.left
	} else {
		cc, uc = cn.Right, &un.right
	}
	if cc == nil {
		if *uc != nil {
			d.release(*uc)
			*uc = nil
		}
		return
	}
	*uc = d.foldFresh(cc, a, plen, *uc)
}

// foldFresh produces the folded sub-trie for control node cn (at
// depth λ) after an update at depth plen, reusing as much of the old
// folded structure as possible. Ownership of old's reference is
// consumed; the returned node carries one reference.
func (d *DAG) foldFresh(cn *Node, a Addr, plen int, old *dnode) *dnode {
	if old == nil || plen == d.Lambda {
		fresh := d.foldPushed(cn, NoLabel)
		if old != nil {
			d.release(old)
		}
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
func (d *DAG) patch(v *dnode, cn *Node, a Addr, q, plen int, def uint32) *dnode {
	if cn != nil && cn.Label != NoLabel {
		def = cn.Label
	}
	if q == plen {
		fresh := d.foldPushed(cn, def)
		d.release(v)
		return fresh
	}
	bit := a.Bit(q)
	var vl, vr *dnode
	if v.kind == kindLeaf {
		vl = d.acquireLeaf(v.label)
		vr = d.acquireLeaf(v.label)
	} else {
		vl, vr = v.left, v.right
		vl.ref++ // hold while re-parenting
		vr.ref++
	}
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
	res := d.acquireNode(vl, vr)
	d.release(v)
	return res
}

func (d *DAG) syncUp(cn *Node, un *dnode, a Addr, q, plen int) *dnode {
	if cn == nil {
		d.dropUp(un)
		return nil
	}
	if un == nil {
		un = d.newDnode()
		un.kind = kindUp
	}
	un.label = cn.Label
	if q == plen {
		return un
	}
	if a.Bit(q) == 0 {
		un.left = d.syncUp(cn.Left, un.left, a, q+1, plen)
	} else {
		un.right = d.syncUp(cn.Right, un.right, a, q+1, plen)
	}
	return un
}

func (d *DAG) dropUp(n *dnode) {
	if n == nil {
		return
	}
	if n.kind != kindUp {
		d.release(n)
		return
	}
	l, r := n.left, n.right
	d.recycleDnode(n)
	d.dropUp(l)
	d.dropUp(r)
}

// FoldedInterior reports |S|, the shared interior node count.
func (d *DAG) FoldedInterior() int { return len(d.sub) }

// FoldedLeaves reports |lp|.
func (d *DAG) FoldedLeaves() int { return len(d.leaves) }

// UpNodes reports the plain nodes above the barrier.
func (d *DAG) UpNodes() int {
	var count func(n *dnode) int
	count = func(n *dnode) int {
		if n == nil || n.kind != kindUp {
			return 0
		}
		return 1 + count(n.left) + count(n.right)
	}
	return count(d.root)
}

// ModelBits applies the §4.2 memory model to the IPv6 DAG.
func (d *DAG) ModelBits() int {
	up, in, lf := d.UpNodes(), len(d.sub), len(d.leaves)
	total := up + in + lf
	ptr := 1
	for v := total; v > 1; v >>= 1 {
		ptr++
	}
	lgDelta := 1
	for v := lf; v > 1; v >>= 1 {
		lgDelta++
	}
	return up*(ptr+lgDelta) + in*2*ptr + lf*lgDelta
}

// ModelBytes is ModelBits in bytes.
func (d *DAG) ModelBytes() int { return (d.ModelBits() + 7) / 8 }

// Control exposes the control FIB (read-only).
func (d *DAG) Control() *Trie { return d.control }
