package pdag

import (
	"math/bits"

	"fibcomp/internal/fib"
)

// Batch lookup over the stride-compressed format. The schedule is the
// one lanes.go established — a fetch pass overlapping the root-array
// loads of the whole chunk, a resolve pass finishing root-terminated
// lookups branchlessly and walking short folded paths inline, and
// interleaved lanes for the deep survivors — but a parked lane
// advances one *stride* (four trie levels) per iteration instead of
// one bit, so the dependent-load chain the lanes exist to overlap is
// a quarter as long to begin with. Results are always bit-identical
// to scalar BlobV2.Lookup (itself pinned to Blob.Lookup).

// laneStateV2 holds the parked deep walks of the v2 walker: per lane
// the word offset of the stride node to enter next, the remaining
// address bits (pre-shifted so bits 31..28 are the next chunk), the
// best label so far, and the batch position the result lands in.
type laneStateV2 struct {
	off  [BatchLanes]uint32
	cur  [BatchLanes]uint32
	best [BatchLanes]uint32
	pos  [BatchLanes]int
	n    int
}

// park adds a walk still unresolved at stride boundary q0.
func (ls *laneStateV2) park(off, cur, best uint32, pos int) {
	l := ls.n
	ls.off[l], ls.cur[l], ls.best[l], ls.pos[l] = off, cur, best, pos
	ls.n = l + 1
}

// run advances every parked walk one stride per iteration through ws
// from level q0 until all have resolved, then scatters the labels into
// dst and empties the lanes. All parked walks are at the same level, so one
// lockstep counter serves every lane; the stride-node loads of live
// lanes within an iteration are mutually independent — and each
// iteration now covers four levels, so a full-depth walk at λ=11
// takes 6 iterations where the v1 lanes take 21.
func (ls *laneStateV2) run(dst, ws []uint32, q0, width int) {
	if ls.n == 0 {
		return
	}
	live := uint32(1)<<uint(ls.n) - 1
	for q := q0; q < width && live != 0; q += 4 {
		for m := live; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			w0 := ws[ls.off[l]]
			intBM, extBM := uint16(w0), uint16(w0>>16)
			c := ls.cur[l] >> 28
			if hit := intBM & strideIntMask[c]; hit != 0 {
				ne := uint32(bits.OnesCount16(extBM))
				ri := uint32(bits.OnesCount16(intBM & (hit - 1)))
				if lab := ws[ls.off[l]+1+ne+ri>>2] >> ((ri & 3) * 8) & 0xFF; lab != fib.NoLabel {
					ls.best[l] = lab
				}
				live &^= 1 << uint(l)
				continue
			}
			if extBM>>c&1 == 0 {
				live &^= 1 << uint(l) // unreachable on a well-formed blob
				continue
			}
			cw := ws[ls.off[l]+1+uint32(bits.OnesCount16(extBM&(1<<c-1)))]
			if cw&wordLeafFlag != 0 {
				if lab := cw & 0xFF; lab != fib.NoLabel {
					ls.best[l] = lab
				}
				live &^= 1 << uint(l)
				continue
			}
			ls.off[l] = cw
			ls.cur[l] <<= 4
		}
	}
	for l := 0; l < ls.n; l++ {
		dst[ls.pos[l]] = ls.best[l]
	}
	ls.n = 0
}

// LookupBatchInto resolves addrs[i] into dst[i] for every address in
// the batch, bit-identically to calling Lookup per address. dst must
// be at least len(addrs) long.
func (b *BlobV2) LookupBatchInto(dst, addrs []uint32) {
	dst = dst[:len(addrs)]
	for i := 0; i < len(addrs); i += batchChunk {
		j := i + batchChunk
		if j > len(addrs) {
			j = len(addrs)
		}
		b.lookupChunk(dst[i:j], addrs[i:j])
	}
}

// LookupBatch is LookupBatchInto allocating the result slice.
func (b *BlobV2) LookupBatch(addrs []uint32) []uint32 {
	dst := make([]uint32, len(addrs))
	b.LookupBatchInto(dst, addrs)
	return dst
}

func (b *BlobV2) lookupChunk(dst, addrs []uint32) {
	var ebuf [batchChunk]uint32
	root, ws, lambda := b.Root, b.Words, b.Lambda
	shift := uint(fib.W - lambda)
	lam := uint(lambda)
	for i, a := range addrs {
		ebuf[i] = root[a>>shift]
	}
	// One stride inline: most survivors of the root resolve terminate
	// in the first stride node (the four levels the v1 resolve pass
	// needed laneDepth=2 inline words plus two lane iterations for),
	// and parking those would cost more than their walk.
	deepQ := lambda + 4
	var ls laneStateV2
	for i, a := range addrs {
		e := ebuf[i]
		p := e & 0x00FFFFFF
		if p&blobLeafFlag != 0 {
			dst[i] = depth0Label(e, p)
			continue
		}
		best := e >> 24
		off, cur := p, a<<lam
		w0 := ws[off]
		intBM, extBM := uint16(w0), uint16(w0>>16)
		c := cur >> 28
		if hit := intBM & strideIntMask[c]; hit != 0 {
			ne := uint32(bits.OnesCount16(extBM))
			ri := uint32(bits.OnesCount16(intBM & (hit - 1)))
			if lab := ws[off+1+ne+ri>>2] >> ((ri & 3) * 8) & 0xFF; lab != fib.NoLabel {
				best = lab
			}
			dst[i] = best
			continue
		}
		if extBM>>c&1 == 0 {
			dst[i] = best
			continue
		}
		// Read the child word before any width cut-off: at
		// width−λ = 4 (string-model blobs) the first stride's inlined
		// depth-4 leaves are the whole folded region, and the scalar
		// walk resolves them. A non-leaf child at the width boundary
		// cannot exist in a well-formed blob; parking it anyway makes
		// run()'s loop bound produce the same defensive fallthrough
		// as the scalar walk's.
		cw := ws[off+1+uint32(bits.OnesCount16(extBM&(1<<c-1)))]
		if cw&wordLeafFlag != 0 {
			if lab := cw & 0xFF; lab != fib.NoLabel {
				best = lab
			}
			dst[i] = best
			continue
		}
		ls.park(cw, cur<<4, best, i)
		if ls.n == BatchLanes {
			ls.run(dst, ws, deepQ, b.Width)
		}
	}
	ls.run(dst, ws, deepQ, b.Width)
}
