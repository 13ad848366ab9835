package ip6

import "fibcomp/internal/pdag"

// Blob is the serialized, read-only lookup structure for the IPv6
// DAG: pdag's §5.3 words — a root array indexed by the top λ bits of
// the address, each entry packing the inherited default label with a
// pointer into the folded region, two words per folded interior node,
// leaves inlined into their parent's words — walked with a 128-bit
// key. Below the barrier a walk consumes one address bit per node
// word, streamed out of the (Hi, Lo) pair like a 128-bit shift
// register. The layout is pdag.Blob's, so a conversion between the two
// pointer types is free: pdag serializes, this type walks.
type Blob pdag.Blob

// Payload encoding: pdag's, under the names the walkers of this
// package use.
const (
	blobNone     = pdag.BlobNone     // root entry: no folded subtree
	blobLeafFlag = pdag.BlobLeafFlag // root entry payload: inlined leaf
	wordLeafFlag = pdag.WordLeafFlag // node word: inlined leaf
)

// Serialize freezes the DAG into a fresh Blob. It compacts the DAG's
// private space and stamps its nodes, so concurrent Serialize calls on
// one DAG are not safe; serialize under the same exclusion that guards
// Set/Delete.
func (d *DAG) Serialize() (*Blob, error) {
	return d.SerializeInto(nil)
}

// SerializeInto freezes the DAG into b through pdag's one emitter,
// reusing b's buffers when their capacity suffices (b == nil allocates
// a fresh blob), so that a steady-churn republish into a retired blob
// allocates nothing. The caller owns the exclusivity of b. On error b's
// contents are unspecified and must not be published.
func (d *DAG) SerializeInto(b *Blob) (*Blob, error) {
	pb, err := d.Region.SerializeInto((*pdag.Blob)(b))
	return (*Blob)(pb), err
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
// barrier, each consuming one bit of the 128-bit shift register. On a
// shard's window blob (RootBase ≠ 0) addr must fall inside the window.
func (b *Blob) Lookup(addr Addr) uint32 {
	ri := int(addr.Hi>>uint(64-b.Lambda)) - b.RootBase
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
func (b *Blob) SizeBytes() int { return (*pdag.Blob)(b).SizeBytes() }
