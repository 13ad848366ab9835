package pdag

import (
	"testing"

	"fibcomp/internal/fib"
	"fibcomp/internal/trie"
)

// FuzzUpdateSequence drives the DAG update machinery with an arbitrary
// byte-encoded operation sequence and cross-checks against two
// oracles — a fuzz-shaped version of the update storm test. The plain
// trie is the control trie's own code, so the second oracle shares
// none: a linear scan over the exact-prefix state the sequence leaves.
// For a serializable barrier the sequence ends in Serialize, whose
// blob is checked against the scan and, byte for byte, against a
// fresh fold of the oracle trie.
func FuzzUpdateSequence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1}, uint8(11))
	f.Add([]byte{1, 12, 10, 0, 2, 3, 0, 12, 10, 0}, uint8(0))
	f.Add([]byte{1, 32, 255, 255, 255, 255, 1}, uint8(32))
	f.Fuzz(func(t *testing.T, ops []byte, lambdaRaw uint8) {
		lambda := int(lambdaRaw) % 33
		d, err := Build(fib.New(), lambda)
		if err != nil {
			t.Fatal(err)
		}
		oracle := trie.New()
		exact := map[fib.Entry]uint32{} // prefix (NextHop 0) → label
		var probes []uint32
		// Each op consumes 6 bytes: verb, plen, 4 addr bytes. The
		// label derives from the verb byte.
		for len(ops) >= 6 {
			verb, plenRaw := ops[0], ops[1]
			addr := uint32(ops[2])<<24 | uint32(ops[3])<<16 | uint32(ops[4])<<8 | uint32(ops[5])
			ops = ops[6:]
			plen := int(plenRaw) % 33
			addr &= fib.Mask(plen)
			p := fib.Entry{Addr: addr, Len: plen}
			probes = append(probes, addr, addr|^fib.Mask(plen))
			if verb%3 == 0 {
				_, present := exact[p]
				delete(exact, p)
				if got := d.Delete(addr, plen); got != oracle.Delete(addr, plen) || got != present {
					t.Fatal("delete disagreement")
				}
			} else {
				label := uint32(verb%4) + 1
				if err := d.Set(addr, plen, label); err != nil {
					t.Fatal(err)
				}
				oracle.Insert(addr, plen, label)
				exact[p] = label
			}
		}
		replay := fib.New()
		for p, label := range exact {
			p.NextHop = label
			replay.Entries = append(replay.Entries, p)
		}
		// Probe every prefix's first and last address, and a
		// deterministic spread of the address space.
		for i := uint32(0); i < 64; i++ {
			probes = append(probes, i*0x04000001+0x00010001)
		}
		for _, a := range probes {
			want := replay.LookupLinear(a)
			if d.Lookup(a) != want || oracle.Lookup(a) != want {
				t.Fatalf("divergence at %08x: dag %d, trie %d, linear scan %d", a, d.Lookup(a), oracle.Lookup(a), want)
			}
		}
		if lambda > maxSerialLambda {
			return
		}
		// The one emitter, after the whole sequence: its blob answers
		// like the linear scan, and its bytes are those of a DAG
		// folded afresh from the oracle trie.
		blob, err := d.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range probes {
			if got, want := blob.Lookup(a), replay.LookupLinear(a); got != want {
				t.Fatalf("blob divergence at %08x: blob %d, linear scan %d", a, got, want)
			}
		}
		fresh, err := FromTrie(oracle, lambda)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		if !sameBlob(blob, want) {
			t.Fatalf("λ=%d: blob after the sequence (%d bytes) differs from a fresh fold's (%d bytes)", lambda, blob.SizeBytes(), want.SizeBytes())
		}
	})
}
