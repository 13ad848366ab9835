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
				t.Fatalf("w=%d: deleting every prefix left more than a bare root", w.bits)
			}
		}
	})
}

// FuzzSharedControl drives two to four control tries that share
// subtrees (Share) with one interleaved byte-encoded sequence of
// inserts, deletes and re-shares, at one width per input. Each trie is
// checked against its own exact-prefix map and a linear scan over it,
// as in FuzzControlTrie; and no write to one trie may move another's
// answers — the reference's above all, whose nodes every other trie
// shares.
func FuzzSharedControl(f *testing.F) {
	// Broadcast /8 and /16 inserts, share everything against trie 0,
	// then write below and beside the shared subtrees.
	f.Add([]byte{2, 0x81, 1, 8, 10, 0, 0, 0, 0x81, 2, 16, 10, 1, 0, 0, 0x81, 6, 0, 0, 0, 0, 0,
		1, 1, 24, 10, 1, 2, 0, 0, 3, 16, 10, 1, 0, 0, 2, 3, 8, 10, 0, 0, 0})
	f.Add([]byte{1, 0x80, 2, 48, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0x80, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		1, 3, 48, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		2, 4, 64, 0x20, 0x01, 0x0d, 0xb8, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 1 {
			return
		}
		n, w := 2+int(ops[0]>>1)%3, widths[ops[0]&1]
		ops = ops[1:]
		tries := make([]*trie.Trie, n)
		states := make([]map[prefix]uint32, n)
		for i := range tries {
			tries[i], states[i] = trie.New(), map[prefix]uint32{}
		}
		var probes []trie.Key
		// answers[i] is trie i's longest match on every probe as it last
		// wrote it: another trie's write must leave it as it stands.
		answers := make([][]uint32, n)
		record := func(i int) {
			answers[i] = answers[i][:0]
			for _, k := range probes {
				answers[i] = append(answers[i], tries[i].LookupKey(k))
			}
		}
		// Each op is a target byte (bit 7: every trie, else trie
		// target mod n), a verb (≡ 6 mod 7: the target re-shares against
		// the next trie; else ≡ 0 mod 3 deletes, otherwise a label), a
		// prefix length byte and the width's key bytes.
		for steps := 0; len(ops) >= 3+w.bytes && steps < 64; steps++ {
			target, verb := ops[0], ops[1]
			plen := int(ops[2]) % (w.bits + 1)
			first, last := w.span(ops[3:], plen)
			ops = ops[3+w.bytes:]
			probes = append(probes, first, last)
			lo, hi := int(target)%n, int(target)%n
			if target&0x80 != 0 {
				lo, hi = 0, n-1
			}
			for i := lo; i <= hi; i++ {
				tr, state, p := tries[i], states[i], prefix{first, plen}
				switch {
				case verb%7 == 6:
					tr.Share(tries[(i+1)%n])
				case verb%3 == 0:
					_, present := state[p]
					delete(state, p)
					if got := tr.DeleteKey(first, plen); got != present {
						t.Fatalf("trie %d: Delete(/%d) = %v with the prefix present=%v", i, plen, got, present)
					}
				default:
					state[p] = uint32(verb%4) + 1
					tr.InsertKey(first, plen, state[p])
				}
				if got := tr.GetKey(first, plen); got != state[p] {
					t.Fatalf("trie %d: Get(/%d) = %d, want %d", i, plen, got, state[p])
				}
				for j := range tries {
					if j == i || len(answers[j]) == 0 {
						continue
					}
					for pi, want := range answers[j] {
						if got := tries[j].LookupKey(probes[pi]); got != want {
							t.Fatalf("a write to trie %d moved trie %d's answer on probe %d: %d, was %d", i, j, pi, got, want)
						}
					}
				}
				record(i)
			}
			for i := range tries {
				record(i)
			}
		}
		for i, tr := range tries {
			for p, label := range states[i] {
				if got := tr.GetKey(p.k, p.plen); got != label {
					t.Fatalf("trie %d: Get(%+v) = %d, want %d", i, p, got, label)
				}
			}
			for _, k := range probes {
				if got, want := tr.LookupKey(k), w.scan(states[i], k); got != want {
					t.Fatalf("trie %d: Lookup(%+v) = %d, linear scan %d", i, k, got, want)
				}
			}
		}
		// Emptying each trie in turn leaves it a bare root and the
		// others' contents as they were.
		for i, tr := range tries {
			for p := range states[i] {
				if !tr.DeleteKey(p.k, p.plen) {
					t.Fatalf("trie %d: Delete(%+v) found nothing", i, p)
				}
			}
			if !tr.Root.IsLeaf() || tr.Root.Label != fib.NoLabel {
				t.Fatalf("trie %d: deleting every prefix left more than a bare root", i)
			}
			for j := i + 1; j < n; j++ {
				for p, label := range states[j] {
					if got := tries[j].GetKey(p.k, p.plen); got != label {
						t.Fatalf("emptying trie %d moved trie %d's %+v: %d, want %d", i, j, p, got, label)
					}
				}
			}
		}
	})
}
