package ip6

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fibcomp/internal/trie"
)

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"::", Addr{}, true},
		{"::1", Addr{0, 1}, true},
		{"2001:db8::", Addr{0x20010db800000000, 0}, true},
		{"2001:db8::1:2", Addr{0x20010db800000000, 0x10002}, true},
		{"ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff", Addr{^uint64(0), ^uint64(0)}, true},
		{"1:2:3:4:5:6:7:8", Addr{0x0001000200030004, 0x0005000600070008}, true},
		{"", Addr{}, false},
		{"1:2:3", Addr{}, false},
		{"1::2::3", Addr{}, false},
		{"1:2:3:4:5:6:7:8:9", Addr{}, false},
		{"gggg::", Addr{}, false},
		{"1:2:3:4:5:6:7:8::", Addr{}, false},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if (err == nil) != c.ok {
			t.Fatalf("ParseAddr(%q): err=%v ok=%v", c.in, err, c.ok)
		}
		if c.ok && got != c.want {
			t.Fatalf("ParseAddr(%q) = %+v want %+v", c.in, got, c.want)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	f := func(hi, lo uint64) bool {
		a := Addr{hi, lo}
		back, err := ParseAddr(a.String())
		return err == nil && back == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"::", "::1", "2001:db8::"} {
		a, err := ParseAddr(s)
		if err != nil || a.String() != s {
			t.Fatalf("canonical form of %q = %q (err=%v)", s, a.String(), err)
		}
	}
}

func TestBitAndMask(t *testing.T) {
	a, _ := ParseAddr("8000::")
	if a.Bit(0) != 1 || a.Bit(1) != 0 {
		t.Fatal("MSB extraction")
	}
	b, _ := ParseAddr("::1")
	if b.Bit(127) != 1 || b.Bit(126) != 0 {
		t.Fatal("LSB extraction")
	}
	if Mask(0) != (Addr{}) || Mask(128) != (Addr{^uint64(0), ^uint64(0)}) {
		t.Fatal("mask extremes")
	}
	if Mask(64) != (Addr{^uint64(0), 0}) {
		t.Fatal("mask 64")
	}
	if Mask(96) != (Addr{^uint64(0), 0xFFFFFFFF00000000}) {
		t.Fatal("mask 96")
	}
	// WithBit inverts Bit.
	f := func(hi, lo uint64, qRaw uint8) bool {
		q := int(qRaw) % 128
		a := Addr{hi, lo}.WithBit(q)
		return a.Bit(q) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParsePrefix(t *testing.T) {
	a, plen, err := ParsePrefix("2001:db8::/32")
	if err != nil || plen != 32 || a != (Addr{0x20010db800000000, 0}) {
		t.Fatalf("got %+v/%d err=%v", a, plen, err)
	}
	// Host bits cleared.
	a, _, err = ParsePrefix("2001:db8::ffff/32")
	if err != nil || a != (Addr{0x20010db800000000, 0}) {
		t.Fatal("host bits not cleared")
	}
	for _, bad := range []string{"2001:db8::", "2001:db8::/129", "x/12"} {
		if _, _, err := ParsePrefix(bad); err == nil {
			t.Fatalf("ParsePrefix(%q) should fail", bad)
		}
	}
}

func randomTable6(rng *rand.Rand, n, delta int) *Table {
	t := New()
	for i := 0; i < n; i++ {
		plen := rng.Intn(57) + 8
		a := Addr{rng.Uint64(), rng.Uint64()}
		t.Add(a, plen, uint32(rng.Intn(delta))+1)
	}
	return t
}

func TestTrieLookupMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		tb := randomTable6(rng, 300, 5)
		tr := FromTable(tb)
		for probe := 0; probe < 1500; probe++ {
			addr := Addr{rng.Uint64(), rng.Uint64()}
			if got, want := tr.Lookup(addr), tb.LookupLinear(addr); got != want {
				t.Fatalf("trial %d: lookup %v = %d want %d", trial, addr, got, want)
			}
		}
	}
}

func TestTrieInsertDeleteDeep(t *testing.T) {
	tr := NewTrie()
	a, _ := ParseAddr("2001:db8::1")
	tr.Insert(a, 128, 5) // host route at full depth
	if tr.Lookup(a) != 5 {
		t.Fatal("128-bit host route lost")
	}
	if !tr.Delete(a, 128) || tr.Lookup(a) != NoLabel {
		t.Fatal("delete failed")
	}
}

func TestLeafPushEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tb := randomTable6(rng, 200, 4)
	tr := FromTable(tb)
	lp := (*trie.Trie)(tr).LeafPush()
	for probe := 0; probe < 2000; probe++ {
		addr := Addr{rng.Uint64(), rng.Uint64()}
		if tr.Lookup(addr) != lp.LookupKey(trie.Key(addr)) {
			t.Fatal("leaf-push changed forwarding")
		}
	}
	s := lp.LeafStats()
	if s.Leaves == 0 || s.Entropy > s.InfoBound+1e-9 {
		t.Fatalf("bad stats %+v", s)
	}
}

func TestDAGEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, lambda := range []int{0, 8, 16, 24, 48, 128} {
		tb := randomTable6(rng, 300, 5)
		tr := FromTable(tb)
		d, err := Build(tb, lambda)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 1500; probe++ {
			addr := Addr{rng.Uint64(), rng.Uint64()}
			if got, want := d.Lookup(addr), tr.Lookup(addr); got != want {
				t.Fatalf("λ=%d: lookup %v = %d want %d", lambda, addr, got, want)
			}
		}
	}
}

func TestDAGUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, lambda := range []int{0, 16, 32, 128} {
		d, err := Build(New(), lambda)
		if err != nil {
			t.Fatal(err)
		}
		oracle := NewTrie()
		type entry struct {
			a    Addr
			plen int
		}
		var live []entry
		for step := 0; step < 250; step++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				e := live[i]
				live = append(live[:i], live[i+1:]...)
				if d.Delete(e.a, e.plen) != oracle.Delete(e.a, e.plen) {
					t.Fatalf("λ=%d: delete disagreement", lambda)
				}
				continue
			}
			plen := rng.Intn(65)
			a := Canonical(Addr{rng.Uint64(), rng.Uint64()}, plen)
			label := uint32(rng.Intn(4)) + 1
			if err := d.Set(a, plen, label); err != nil {
				t.Fatal(err)
			}
			oracle.Insert(a, plen, label)
			live = append(live, entry{a, plen})
		}
		for probe := 0; probe < 2500; probe++ {
			addr := Addr{rng.Uint64(), rng.Uint64()}
			if d.Lookup(addr) != oracle.Lookup(addr) {
				t.Fatalf("λ=%d: post-update divergence", lambda)
			}
		}
		// Drain everything: the folded tables must empty out.
		for _, e := range live {
			d.Delete(e.a, e.plen)
		}
		if d.FoldedInterior() != 0 {
			t.Fatalf("λ=%d: %d leaked interior nodes", lambda, d.FoldedInterior())
		}
	}
}

func TestDAGCompresses(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tb, err := SplitFIB(rng, 20000, []float64{0.85, 0.1, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	folded, err := Build(tb, 16)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Build(tb, 128)
	if err != nil {
		t.Fatal(err)
	}
	if folded.ModelBytes() >= plain.ModelBytes()/2 {
		t.Fatalf("IPv6 folding too weak: %d vs %d bytes",
			folded.ModelBytes(), plain.ModelBytes())
	}
}

func TestXBW6Equivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tb := randomTable6(rng, 400, 6)
	tr := FromTable(tb)
	x, err := NewXBW(tb)
	if err != nil {
		t.Fatal(err)
	}
	for probe := 0; probe < 3000; probe++ {
		addr := Addr{rng.Uint64(), rng.Uint64()}
		if got, want := x.Lookup(addr), tr.Lookup(addr); got != want {
			t.Fatalf("xbw6 lookup %v = %d want %d", addr, got, want)
		}
	}
}

func TestXBW6NearEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tb, err := SplitFIB(rng, 20000, []float64{0.9, 0.07, 0.03})
	if err != nil {
		t.Fatal(err)
	}
	lp := (*trie.Trie)(FromTable(tb)).LeafPush()
	s := lp.LeafStats()
	x, err := NewXBW(tb)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(x.SizeBits()) / s.Entropy; ratio > 1.8 {
		t.Fatalf("XBW6 %.2f× entropy bound", ratio)
	}
}

func TestSplitFIBShape(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tb, err := SplitFIB(rng, 5000, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if tb.N() != 5000 {
		t.Fatalf("N=%d", tb.N())
	}
	maxLen := 0
	for _, e := range tb.Entries {
		if e.Len > maxLen {
			maxLen = e.Len
		}
		if e.Len < 3 {
			t.Fatalf("prefix above the unicast root: %d", e.Len)
		}
	}
	if maxLen > 64 {
		t.Fatalf("prefix longer than /64: %d", maxLen)
	}
	// Every generated address must resolve (the split covers 2000::/3).
	tr := FromTable(tb)
	for _, a := range RandomAddrs(rng, 500) {
		if tr.Lookup(a) == NoLabel {
			t.Fatal("uncovered global unicast address")
		}
	}
	if _, err := SplitFIB(rng, 0, []float64{1}); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestTableValidation(t *testing.T) {
	tb := New()
	if err := tb.Add(Addr{}, 200, 1); err == nil {
		t.Fatal("length 200 accepted")
	}
	if err := tb.Add(Addr{}, 8, 0); err == nil {
		t.Fatal("label 0 accepted")
	}
	if err := tb.Add(Addr{}, 8, 999); err == nil {
		t.Fatal("label 999 accepted")
	}
}
