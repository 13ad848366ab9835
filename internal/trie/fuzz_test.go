package trie_test

import (
	"testing"

	"fibcomp/internal/fib"
	"fibcomp/internal/ip6"
	"fibcomp/internal/trie"
)

// prefix is one exact prefix of a fuzzed trie's state.
type prefix struct {
	k    trie.Key
	plen int
}

// width is one address family as FuzzControlTrie drives it: how many
// key bytes an op carries, how a prefix's first and last address read
// as keys, and the linear-scan longest match over a state — each
// written with the family's own address code (fib, ip6), not trie's.
type width struct {
	bits, bytes int
	span        func(b []byte, plen int) (first, last trie.Key)
	scan        func(state map[prefix]uint32, k trie.Key) uint32
}

var widths = [2]width{
	{fib.W, 4,
		func(b []byte, plen int) (trie.Key, trie.Key) {
			a := (uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])) & fib.Mask(plen)
			return trie.V4(a), trie.V4(a | ^fib.Mask(plen))
		},
		func(state map[prefix]uint32, k trie.Key) uint32 {
			t := fib.New()
			for p, label := range state {
				t.Entries = append(t.Entries, fib.Entry{Addr: uint32(p.k.Hi >> 32), Len: p.plen, NextHop: label})
			}
			return t.LookupLinear(uint32(k.Hi >> 32))
		}},
	{ip6.W, 16,
		func(b []byte, plen int) (trie.Key, trie.Key) {
			var a ip6.Addr
			for i := 0; i < 8; i++ {
				a.Hi = a.Hi<<8 | uint64(b[i])
				a.Lo = a.Lo<<8 | uint64(b[8+i])
			}
			a, m := ip6.Canonical(a, plen), ip6.Mask(plen)
			return trie.Key(a), trie.Key{Hi: a.Hi | ^m.Hi, Lo: a.Lo | ^m.Lo}
		},
		func(state map[prefix]uint32, k trie.Key) uint32 {
			t := ip6.New()
			for p, label := range state {
				t.Entries = append(t.Entries, ip6.Entry{Addr: ip6.Addr(p.k), Len: p.plen, NextHop: label})
			}
			return t.LookupLinear(ip6.Addr(k))
		}},
}

// FuzzControlTrie drives two control tries, one keyed at IPv4 width and
// one at IPv6 width, with one interleaved byte-encoded sequence of
// inserts and deletes. Each trie is checked against oracles that share
// no code with it: a map of its exact-prefix state for Get and Delete,
// and a linear scan over that state for Lookup. Deleting every prefix
// must then prune each trie back to a bare root.
func FuzzControlTrie(f *testing.F) {
	f.Add([]byte{2, 8, 10, 0, 0, 0, 5, 48, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 4, 32, 255, 255, 255, 255, 0, 32, 255, 255, 255, 255})
	f.Add([]byte{3, 128, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		tries := [2]*trie.Trie{trie.New(), trie.New()}
		states := [2]map[prefix]uint32{{}, {}}
		var probes [2][]trie.Key
		// Each op is a verb byte — bit 0 picks the width, the rest
		// delete (≡ 0 mod 3) or a label — a prefix length byte and the
		// width's key bytes.
		for len(ops) >= 2 {
			verb, fam := ops[0]>>1, ops[0]&1
			w, tr, state := widths[fam], tries[fam], states[fam]
			if len(ops) < 2+w.bytes {
				break
			}
			plen := int(ops[1]) % (w.bits + 1)
			first, last := w.span(ops[2:], plen)
			ops = ops[2+w.bytes:]
			p := prefix{first, plen}
			if verb%3 == 0 {
				_, present := state[p]
				delete(state, p)
				if got := tr.DeleteKey(first, plen); got != present {
					t.Fatalf("w=%d: Delete(/%d) = %v with the prefix present=%v", w.bits, plen, got, present)
				}
			} else {
				state[p] = uint32(verb%4) + 1
				tr.InsertKey(first, plen, state[p])
			}
			if got := tr.GetKey(first, plen); got != state[p] {
				t.Fatalf("w=%d: Get(/%d) = %d, want %d", w.bits, plen, got, state[p])
			}
			probes[fam] = append(probes[fam], first, last)
		}
		for fam, w := range widths {
			tr, state := tries[fam], states[fam]
			for p, label := range state {
				if got := tr.GetKey(p.k, p.plen); got != label {
					t.Fatalf("w=%d: Get(%+v) = %d, want %d", w.bits, p, got, label)
				}
			}
			for _, k := range probes[fam] {
				if got, want := tr.LookupKey(k), w.scan(state, k); got != want {
					t.Fatalf("w=%d: Lookup(%+v) = %d, linear scan %d", w.bits, k, got, want)
				}
			}
			for p := range state {
				if !tr.DeleteKey(p.k, p.plen) {
					t.Fatalf("w=%d: Delete(%+v) found nothing", w.bits, p)
				}
			}
			if !tr.Root.IsLeaf() || tr.Root.Label != fib.NoLabel {
				t.Fatalf("w=%d: deleting every prefix left %d nodes", w.bits, tr.CountNodes())
			}
		}
	})
}
