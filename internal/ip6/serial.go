package ip6

import (
	"errors"
	"fmt"
)

// Blob is the serialized, read-only lookup structure for the IPv6
// DAG — the same two-word-per-interior-node encoding as the IPv4 v1
// blob (pdag.Blob), with the 2^λ-entry root array indexed by the top
// λ bits of the 128-bit address. Each root entry packs the inherited
// default label with a pointer into the folded region; leaves are
// inlined into their parent's words. Below the barrier a walk
// consumes one address bit per node word, streamed out of the
// (Hi, Lo) pair like a 128-bit shift register.
type Blob struct {
	Lambda int
	Root   []uint32 // 2^λ entries: def<<24 | payload
	Nodes  []uint32 // 2 words per interior node: payload each

	// Incremental-republish stamps (see SerializeInto): the DAG whose
	// group geometry laid this buffer out, the generation of that
	// layout, and the mutation generation the contents reflect.
	owner  *DAG
	geoGen uint64
	gen    uint64
}

// Payload encoding, shared with the IPv4 blob so the shardfib merged
// view can splice root arrays of either family identically.
const (
	blobNone     = 0x00FFFFFF // root entry: no folded subtree
	blobLeafFlag = 0x00800000 // root entry payload: inlined leaf
	wordLeafFlag = 0x80000000 // node word: inlined leaf
	maxBlobIdx   = 0x007FFFFF
)

// maxSerialLambda bounds the root array to 64 MB, as for IPv4. Real
// IPv6 tables concentrate under 2000::/3, so barriers past ~16 only
// dilute the root array further.
const maxSerialLambda = 24

// groupBitsMax bounds the dirty-tracking granularity: the root array
// is partitioned by its top min(λ, 8) bits into at most 256 contiguous
// groups, each owning a stable region of the folded buffers. The
// trade is re-emission cost against per-group slack and bookkeeping:
// a steady-churn republish re-emits ~1/256 of the folded region per
// dirty buffer generation, while the fixed slack each group carries
// (see the relayout passes) stays a small fraction of a realistic
// table. Coarser groups were measured to leave the per-update cost
// dominated by re-expanding clean strides inside the one dirty group.
const groupBitsMax = 8

func (d *DAG) groupBits() int {
	if d.Lambda < groupBitsMax {
		return d.Lambda
	}
	return groupBitsMax
}

// serialGeom is the stable group layout of the serialized blob: group
// g owns node indices [base[g], base[g]+capn[g]) of the folded region,
// of which used[g] are live. Bases never move while gen is unchanged —
// re-emitting a dirty group cannot disturb a clean one — and every
// full layout grants each group slack so steady churn re-emits in
// place. A group that
// outgrows its region forces a fresh layout under a new gen, which
// invalidates (and fully rewrites) any buffer stamped with the old
// one.
type serialGeom struct {
	gen   uint64
	total uint32
	base  []uint32
	used  []uint32
	capn  []uint32
}

func (g *serialGeom) ensure(n int) {
	if cap(g.base) < n {
		g.base = make([]uint32, n)
		g.used = make([]uint32, n)
		g.capn = make([]uint32, n)
	}
	g.base = g.base[:n]
	g.used = g.used[:n]
	g.capn = g.capn[:n]
}

// errRegionFull aborts a group emission that no longer fits its
// region; the serializer falls back to a full re-layout. The abort
// happens before any folded word is written (only root entries of the
// aborted group may be stale), so the fallback pass starts clean.
var errRegionFull = errors.New("ip6: dirty group outgrew its region")

// serialNoLimit disables the region bound for re-layout passes; the
// honest maxBlobIdx check still applies.
const serialNoLimit = ^uint32(0)

// markDirty advances the mutation generation and records it on every
// root-stride group the update covers; the serializer re-emits only
// groups whose generation is newer than the target buffer's. An
// update at depth ≥ the group depth lands in exactly one group, a
// shorter prefix covers a power-of-two run (a is canonical, so the
// run starts at its group).
func (d *DAG) markDirty(a Addr, plen int) {
	d.mutGen++
	if d.lastMut == nil {
		return
	}
	gb := d.groupBits()
	g := int(a.Hi >> uint(64-gb))
	if plen >= gb {
		d.lastMut[g] = d.mutGen
		return
	}
	for n := 1 << uint(gb-plen); n > 0; n-- {
		d.lastMut[g] = d.mutGen
		g++
	}
}

// groupPlan walks the plain region above the group depth once,
// recording for every group the subtree hanging at its path and the
// default label in force there — the per-group inputs the serializer
// hands to fillRoot. Folded nodes hang exactly at depth λ, so at
// group depth min(λ, 6) a group's subtree is a plain node, a
// folded node (λ ≤ 6), or nil; never a folded node spanning groups.
func (d *DAG) groupPlan() {
	gb := d.groupBits()
	n := 1 << uint(gb)
	if cap(d.groupNode) < n {
		d.groupNode = make([]*dnode, n)
		d.groupDef = make([]uint32, n)
	}
	d.groupNode = d.groupNode[:n]
	d.groupDef = d.groupDef[:n]
	d.planWalk(d.root, 0, 0, NoLabel, gb)
}

func (d *DAG) planWalk(n *dnode, v uint32, depth int, def uint32, gb int) {
	if depth == gb || n == nil || n.kind != kindUp {
		lo := int(v) << uint(gb-depth)
		hi := lo + 1<<uint(gb-depth)
		for g := lo; g < hi; g++ {
			d.groupNode[g] = n
			d.groupDef[g] = def
		}
		return
	}
	if n.label != NoLabel {
		def = n.label
	}
	d.planWalk(n.left, 2*v, depth+1, def, gb)
	d.planWalk(n.right, 2*v+1, depth+1, def, gb)
}

// Serialize freezes the DAG into a fresh Blob. Like the IPv4
// serializer it advances the DAG's stamping epoch, so concurrent
// Serialize calls on one DAG are not safe; serialize under the same
// exclusion that guards Set/Delete.
func (d *DAG) Serialize() (*Blob, error) {
	return d.SerializeInto(nil)
}

// SerializeInto freezes the DAG into b, reusing b's Root and Nodes
// buffers when their capacity suffices; b == nil allocates a fresh
// blob. The folded region is laid out group by group (one group per
// top min(λ, 6) root bits), each group serialized under its own
// stamping epoch so hash-consed sharing stays confined within the
// group — the invariant that makes regions independent. When b was
// last written by this DAG under the current group layout, only the
// groups mutated since b's generation are re-emitted, in place at
// their stable bases, with zero heap allocations: steady-churn
// republish cost scales with the batch footprint, not the table. The
// caller owns the exclusivity of b — it must not be reachable by
// concurrent readers (shardfib proves this with a reader count before
// recycling a retired snapshot). On error b's contents are
// unspecified and must not be published.
func (d *DAG) SerializeInto(b *Blob) (*Blob, error) {
	if d.Lambda > maxSerialLambda {
		return nil, fmt.Errorf("ip6: cannot serialize with barrier λ=%d > %d", d.Lambda, maxSerialLambda)
	}
	rootLen := 1 << uint(d.Lambda)
	d.groupPlan()
	if b != nil && b.owner == d && d.geo1.gen != 0 && b.geoGen == d.geo1.gen &&
		b.Lambda == d.Lambda && len(b.Root) == rootLen && len(b.Nodes) == 2*int(d.geo1.total) {
		if err := d.emitDirtyV1(b); err == nil {
			b.gen = d.mutGen
			return b, nil
		}
		// A dirty group outgrew its region: fall through to the full
		// pass, which re-lays the geometry out with fresh slack.
	}
	if b == nil {
		b = &Blob{}
	}
	b.Lambda = d.Lambda
	if cap(b.Root) >= rootLen {
		b.Root = b.Root[:rootLen]
	} else {
		b.Root = make([]uint32, rootLen)
	}
	var err error
	if d.geo1.gen != 0 {
		// A layout exists (the other buffer of a double-buffered
		// publish cycle may be stamped with it): emit every group into
		// its existing region so both buffers share one geometry and
		// keep taking the incremental path.
		err = d.emitAllV1(b, false)
		if err == errRegionFull {
			err = d.emitAllV1(b, true)
		}
	} else {
		err = d.emitAllV1(b, true)
	}
	if err != nil {
		b.owner, b.geoGen = nil, 0
		return nil, err
	}
	b.owner, b.geoGen, b.gen = d, d.geo1.gen, d.mutGen
	return b, nil
}

// emitDirtyV1 re-emits only the groups mutated since b's generation;
// everything else in b is already bit-exact for the current DAG.
func (d *DAG) emitDirtyV1(b *Blob) error {
	for g := range d.lastMut {
		if d.lastMut[g] <= b.gen {
			continue
		}
		if err := d.emitGroupV1(b, g, d.geo1.base[g]+d.geo1.capn[g], false); err != nil {
			return err
		}
	}
	return nil
}

// emitAllV1 serializes every group. With relayout, groups are packed
// at fresh bases with slack (used/8 + 8 node slots each) and the
// geometry generation advances; otherwise the existing regions are
// reused so the buffer stays exchangeable with its double-buffer twin.
func (d *DAG) emitAllV1(b *Blob, relayout bool) error {
	groups := 1 << uint(d.groupBits())
	d.geo1.ensure(groups)
	if !relayout {
		need := 2 * int(d.geo1.total)
		if need > cap(b.Nodes) {
			b.Nodes = make([]uint32, need)
		} else {
			b.Nodes = b.Nodes[:need]
		}
		for g := 0; g < groups; g++ {
			if err := d.emitGroupV1(b, g, d.geo1.base[g]+d.geo1.capn[g], false); err != nil {
				return err
			}
		}
		return nil
	}
	watermark := uint32(0)
	for g := 0; g < groups; g++ {
		d.geo1.base[g] = watermark
		if err := d.emitGroupV1(b, g, serialNoLimit, true); err != nil {
			return err
		}
		used := d.geo1.used[g]
		d.geo1.capn[g] = used + used/8 + 8
		watermark += d.geo1.capn[g]
	}
	d.geo1.total = watermark
	need := 2 * int(watermark)
	if need > cap(b.Nodes) {
		nn := make([]uint32, need)
		copy(nn, b.Nodes)
		b.Nodes = nn
	} else {
		b.Nodes = b.Nodes[:need]
	}
	d.geoSeq++
	d.geo1.gen = d.geoSeq
	return nil
}

// emitGroupV1 re-serializes one group: a fresh stamping epoch (so no
// stamp — and hence no sharing — crosses the group boundary), node
// indices assigned from the group's stable base, and the group's
// words emitted immediately while the stamps are valid (a later group
// restamps any subtree it shares). limit bounds the indices
// (exclusive); grow extends b.Nodes as the re-layout pass discovers
// sizes — the dirty path writes into fixed regions and never
// allocates.
func (d *DAG) emitGroupV1(b *Blob, g int, limit uint32, grow bool) error {
	base := d.geo1.base[g]
	d.nextEpoch()
	d.serialList = d.serialList[:0]
	d.serialBase = base
	d.serialLimit = limit
	if err := d.fillRoot(b.Root, d.groupNode[g], uint32(g), d.groupBits(), d.groupDef[g]); err != nil {
		return err
	}
	used := uint32(len(d.serialList))
	if grow {
		need := 2 * int(base+used)
		if need > cap(b.Nodes) {
			nn := make([]uint32, need, need+need/2)
			copy(nn, b.Nodes)
			b.Nodes = nn
		} else if need > len(b.Nodes) {
			b.Nodes = b.Nodes[:need]
		}
	}
	for i, n := range d.serialList {
		w := 2 * int(base+uint32(i))
		b.Nodes[w] = wordFor(n.left)
		b.Nodes[w+1] = wordFor(n.right)
	}
	d.geo1.used[g] = used
	return nil
}

// fillRoot writes the root-array entries covered by the plain-region
// node n at depth, i.e. slots [v<<(λ-depth), (v+1)<<(λ-depth)). def is
// the last label seen on the path, the inherited default packed into
// bits 24..31 of each entry. Folded subtrees cover their whole slot
// range with one payload: the index assign gives their interior node.
func (d *DAG) fillRoot(root []uint32, n *dnode, v uint32, depth int, def uint32) error {
	lo := int(v) << uint(d.Lambda-depth)
	hi := lo + 1<<uint(d.Lambda-depth)
	if n == nil {
		fillWords(root[lo:hi], def<<24|blobNone)
		return nil
	}
	switch n.kind {
	case kindLeaf:
		fillWords(root[lo:hi], def<<24|blobLeafFlag|(n.label&0xFF))
		return nil
	case kindInt:
		idx, err := d.assign(n)
		if err != nil {
			return err
		}
		fillWords(root[lo:hi], def<<24|idx)
		return nil
	}
	if n.label != NoLabel {
		def = n.label
	}
	if depth == d.Lambda {
		// A plain node at the barrier: nothing folded hangs here (the
		// builder folds exactly at λ), only the default applies.
		root[lo] = def<<24 | blobNone
		return nil
	}
	if err := d.fillRoot(root, n.left, 2*v, depth+1, def); err != nil {
		return err
	}
	return d.fillRoot(root, n.right, 2*v+1, depth+1, def)
}

// assign gives a folded subtree dense preorder indices, stamping each
// interior node with its index under the current epoch; shared
// subtrees reached a second time within the group return their index
// immediately, preserving the hash-consed sharing in the blob.
func (d *DAG) assign(root *dnode) (uint32, error) {
	epoch := d.serialEpoch
	if root.serialEpoch == epoch {
		return root.serialIdx, nil
	}
	if err := d.stamp(root, epoch); err != nil {
		return 0, err
	}
	stack := append(d.serialStack[:0], root)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// Stamp both children at the parent, left first, so siblings
		// take consecutive indices; push right below left so the left
		// subtree is walked first.
		l, r := n.left, n.right
		pushL := l.kind == kindInt && l.serialEpoch != epoch
		pushR := r.kind == kindInt && r.serialEpoch != epoch
		if pushL {
			if err := d.stamp(l, epoch); err != nil {
				d.serialStack = stack
				return 0, err
			}
		}
		if pushR {
			// l == r was stamped above; recheck keeps the scan
			// single-visit.
			if r.serialEpoch == epoch {
				pushR = false
			} else if err := d.stamp(r, epoch); err != nil {
				d.serialStack = stack
				return 0, err
			}
		}
		if pushR {
			stack = append(stack, r)
		}
		if pushL {
			stack = append(stack, l)
		}
	}
	d.serialStack = stack
	return root.serialIdx, nil
}

// stamp assigns n the next dense index of the current group's region.
func (d *DAG) stamp(n *dnode, epoch uint64) error {
	idx := d.serialBase + uint32(len(d.serialList))
	if idx > maxBlobIdx {
		return fmt.Errorf("ip6: too many folded nodes to serialize (%d)", idx)
	}
	if idx >= d.serialLimit {
		return errRegionFull
	}
	n.serialEpoch, n.serialIdx = epoch, idx
	d.serialList = append(d.serialList, n)
	return nil
}

// wordFor encodes a folded child as one 32-bit node word.
func wordFor(n *dnode) uint32 {
	if n.kind == kindLeaf {
		return wordLeafFlag | (n.label & 0xFF)
	}
	return n.serialIdx
}

// fillWords writes v into every slot; the compiler lowers this loop
// to a vectorized fill.
func fillWords(s []uint32, v uint32) {
	for i := range s {
		s[i] = v
	}
}

// shiftCursor packs the address bits below the barrier into a two-word
// shift register: bit λ of the address sits at bit 63 of hi. Go
// defines x>>64 as 0, so λ=0 and λ=64 need no special casing.
func shiftCursor(addr Addr, lambda int) (hi, lo uint64) {
	if lambda < 64 {
		return addr.Hi<<uint(lambda) | addr.Lo>>uint(64-lambda), addr.Lo << uint(lambda)
	}
	return addr.Lo << uint(lambda-64), 0
}

// Lookup performs longest prefix match on the serialized form: one
// root-array access plus one node-word access per level below the
// barrier, each consuming one bit of the 128-bit shift register.
func (b *Blob) Lookup(addr Addr) uint32 {
	ri := int(addr.Hi >> uint(64-b.Lambda))
	e := b.Root[ri]
	best := e >> 24
	pay := e & 0x00FFFFFF
	if pay == blobNone {
		return best
	}
	if pay&blobLeafFlag != 0 {
		if l := pay & 0xFF; l != NoLabel {
			best = l
		}
		return best
	}
	idx := pay
	hi, lo := shiftCursor(addr, b.Lambda)
	for q := b.Lambda; q < W; q++ {
		w := b.Nodes[2*idx+uint32(hi>>63)]
		hi = hi<<1 | lo>>63
		lo <<= 1
		if w&wordLeafFlag != 0 {
			if l := w & 0xFF; l != NoLabel {
				best = l
			}
			return best
		}
		idx = w
	}
	return best
}

// SizeBytes reports the byte size of the serialized structure.
func (b *Blob) SizeBytes() int {
	return 4 * (len(b.Root) + len(b.Nodes))
}
