package lookupd

import (
	"encoding/binary"
	"math/rand"
	"net"
	"testing"
	"time"

	"fibcomp/internal/fib"
	"fibcomp/internal/ip6"
	"fibcomp/internal/shardfib"
)

func testEngines(t *testing.T) (*shardfib.FIB, *shardfib.FIB6, *ip6.Trie) {
	t.Helper()
	tb := fib.New()
	rng := rand.New(rand.NewSource(21))
	tb.Add(0, 0, 1)
	for i := 0; i < 500; i++ {
		plen := rng.Intn(20) + 8
		tb.Add(rng.Uint32()&fib.Mask(plen), plen, uint32(rng.Intn(5))+1)
	}
	tb.Dedup()
	f4, err := shardfib.Build(tb, 11, 16)
	if err != nil {
		t.Fatal(err)
	}
	t6, err := ip6.SplitFIB(rng, 1500, []float64{0.6, 0.25, 0.15})
	if err != nil {
		t.Fatal(err)
	}
	f6, err := shardfib.Build6(t6, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	return f4, f6, ip6.FromTable(t6)
}

// TestDualStackEndToEnd serves both families from one socket and
// checks v6 batches against the trie oracle while legacy v4 batches
// keep working unchanged on the same connection.
func TestDualStackEndToEnd(t *testing.T) {
	f4, f6, oracle6 := testEngines(t)
	s, err := ListenDual("127.0.0.1:0", f4, f6)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	rng := rand.New(rand.NewSource(22))
	addrs6 := ip6.RandomAddrs(rng, MaxBatch)
	labels, err := c.LookupBatch6(addrs6)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs6 {
		if want := oracle6.Lookup(a); labels[i] != want {
			t.Fatalf("v6 batch[%d] %s: %d want %d", i, a, labels[i], want)
		}
	}
	// Legacy v4 framing on the same socket, interleaved.
	addrs4 := make([]uint32, 64)
	for i := range addrs4 {
		addrs4[i] = rng.Uint32()
	}
	labels4, err := c.LookupBatch(addrs4)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs4 {
		if want := f4.Lookup(a); labels4[i] != want {
			t.Fatalf("v4 batch[%d] %08x: %d want %d", i, a, labels4[i], want)
		}
	}
	if got := s.Lookups(); got != MaxBatch+64 {
		t.Fatalf("server counted %d lookups, want %d", got, MaxBatch+64)
	}
}

// TestV6WithoutEngine: a v4-only server answers well-formed v6
// requests with "no route" on every address instead of dropping them.
func TestV6WithoutEngine(t *testing.T) {
	f4, _, _ := testEngines(t)
	s, err := Listen("127.0.0.1:0", f4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	labels, err := c.LookupBatch6(ip6.RandomAddrs(rand.New(rand.NewSource(23)), 8))
	if err != nil {
		t.Fatal(err)
	}
	for i, label := range labels {
		if label != ip6.NoLabel {
			t.Fatalf("label[%d] = %d on a v4-only server, want no route", i, label)
		}
	}
}

// TestMalformedDatagramTable is the robustness matrix for the dual
// framing: every malformed shape must be dropped (counted, no reply,
// no panic) and every well-formed shape answered, with the server
// still serving afterwards.
func TestMalformedDatagramTable(t *testing.T) {
	f4, f6, _ := testEngines(t)
	s, err := ListenDual("127.0.0.1:0", f4, f6)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	cases := []struct {
		name   string
		data   []byte
		answer bool // expect a reply (true) or a counted drop (false)
	}{
		{"empty", []byte{}, false},
		{"truncated AF byte only v4", []byte{AFInet}, false},
		{"truncated AF byte only v6", []byte{AFInet6}, false},
		{"bad family 0", append([]byte{0}, make([]byte, 16)...), false},
		{"bad family 7", append([]byte{7}, make([]byte, 16)...), false},
		{"legacy torn address", []byte{1, 2, 3}, false},
		{"tagged v4 torn address", []byte{AFInet, 1, 2}, false},
		// A v6 request truncated mid-address. Note 1+15 bytes is NOT in
		// this table: 16 total is ≡ 0 (mod 4), a byte-valid legacy v4
		// batch, and the server must answer it as one — the price of
		// keeping the untagged v4 framing wire-compatible.
		{"short v6 address", append([]byte{AFInet6}, make([]byte, 14)...), false},
		{"v6 one and a half addresses", append([]byte{AFInet6}, make([]byte, 24)...), false},
		{"v6 oversized batch", append([]byte{AFInet6}, make([]byte, 16*(MaxBatch+1))...), false},
		{"legacy oversized batch", make([]byte, 4*(MaxBatch+1)), false},
		{"legacy single", []byte{10, 0, 0, 1}, true},
		{"tagged v4 single", []byte{AFInet, 10, 0, 0, 1}, true},
		{"tagged v6 single", append([]byte{AFInet6}, make([]byte, 16)...), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := net.Dial("udp", s.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			errsBefore := s.Errors()
			if len(tc.data) > 0 {
				if _, err := raw.Write(tc.data); err != nil {
					t.Fatal(err)
				}
			} else {
				// A zero-length UDP datagram is valid on the wire.
				if _, err := raw.Write(nil); err != nil {
					t.Fatal(err)
				}
			}
			raw.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
			buf := make([]byte, maxResponse)
			n, err := raw.Read(buf)
			if tc.answer {
				if err != nil {
					t.Fatalf("well-formed datagram not answered: %v", err)
				}
				want := len(tc.data)
				if tc.data[0] == AFInet || tc.data[0] == AFInet6 {
					count := (len(tc.data) - 1) / 4
					if tc.data[0] == AFInet6 {
						count = (len(tc.data) - 1) / 16
					}
					want = 1 + 4*count
					if buf[0] != tc.data[0] {
						t.Fatalf("reply AF %d, want %d", buf[0], tc.data[0])
					}
				}
				if n != want {
					t.Fatalf("reply %d bytes, want %d", n, want)
				}
			} else {
				if err == nil {
					t.Fatalf("malformed datagram answered with %d bytes", n)
				}
				deadline := time.Now().Add(2 * time.Second)
				for s.Errors() == errsBefore && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if s.Errors() == errsBefore {
					t.Fatal("malformed datagram not counted")
				}
			}
		})
	}
	// The server must still answer both families after the gauntlet.
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Lookup(0x0A000001); err != nil {
		t.Fatalf("v4 lookup after malformed gauntlet: %v", err)
	}
	if _, err := c.Lookup6(ip6.Addr{Hi: 0x2001_0db8 << 32}); err != nil {
		t.Fatalf("v6 lookup after malformed gauntlet: %v", err)
	}
}

// TestDispatchZeroAllocsBothFamilies pins the serve loop's contract:
// processing a full-size datagram of either family — legacy v4,
// tagged v4 or tagged v6 — against the sharded engines touches the
// heap zero times, including the per-dispatch view pin.
func TestDispatchZeroAllocsBothFamilies(t *testing.T) {
	f4, f6, _ := testEngines(t)
	s := &Server{}
	s.fib.Store(&engineBox{f4})
	s.fib6.Store(&engineBox6{f6})
	w := new(wire)
	st := new(workerStats)
	rng := rand.New(rand.NewSource(24))

	// Tagged v6 full batch.
	w.req[0] = AFInet6
	for i := 0; i < MaxBatch; i++ {
		a := ip6.Addr{Hi: 0x2000000000000000 | rng.Uint64()>>3, Lo: rng.Uint64()}
		binary.BigEndian.PutUint64(w.req[1+16*i:], a.Hi)
		binary.BigEndian.PutUint64(w.req[1+16*i+8:], a.Lo)
	}
	n6 := 1 + 16*MaxBatch
	s.dispatchOne(w, n6, st) // warm pools
	allocs := testing.AllocsPerRun(200, func() {
		if got, _ := s.dispatchOne(w, n6, st); got != 1+4*MaxBatch {
			t.Fatalf("v6 dispatch reply %d, want %d", got, 1+4*MaxBatch)
		}
	})
	if allocs != 0 {
		t.Fatalf("v6 dispatch allocated %.2f times per datagram, want 0", allocs)
	}

	// Legacy v4 full batch through the same dispatcher.
	for i := 0; i < MaxBatch; i++ {
		binary.BigEndian.PutUint32(w.req[4*i:], rng.Uint32())
	}
	n4 := 4 * MaxBatch
	s.dispatchOne(w, n4, st)
	allocs = testing.AllocsPerRun(200, func() {
		if got, _ := s.dispatchOne(w, n4, st); got != n4 {
			t.Fatalf("v4 dispatch reply %d, want %d", got, n4)
		}
	})
	if allocs != 0 {
		t.Fatalf("v4 dispatch allocated %.2f times per datagram, want 0", allocs)
	}

	// Tagged v4.
	copy(w.req[1:], w.req[:n4])
	w.req[0] = AFInet
	s.dispatchOne(w, 1+n4, st)
	allocs = testing.AllocsPerRun(200, func() {
		if got, _ := s.dispatchOne(w, 1+n4, st); got != 1+n4 {
			t.Fatalf("tagged v4 dispatch reply %d, want %d", got, 1+n4)
		}
	})
	if allocs != 0 {
		t.Fatalf("tagged v4 dispatch allocated %.2f times per datagram, want 0", allocs)
	}
}

// TestHandle6MatchesLookup cross-checks the v6 wire encode/decode
// against direct engine lookups for the batch-into and scalar
// dispatch flavors.
func TestHandle6MatchesLookup(t *testing.T) {
	_, f6, oracle := testEngines(t)
	w := new(wire)
	count := 37 // not a lane multiple
	addrs := ip6.RandomAddrs(rand.New(rand.NewSource(25)), count)
	for i, a := range addrs {
		binary.BigEndian.PutUint64(w.req[1+16*i:], a.Hi)
		binary.BigEndian.PutUint64(w.req[1+16*i+8:], a.Lo)
	}
	blob := func() *ip6.Blob {
		d, err := ip6.FromTrie(oracle, 16)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}()
	for _, eng := range []Lookuper6{f6, blob, scalarOnly6{blob}} {
		if got := handle6(eng, w.req[:], w.resp[:], &w.scratch, 16*count); got != count {
			t.Fatalf("handle6 returned %d, want %d", got, count)
		}
		if w.resp[0] != AFInet6 {
			t.Fatalf("reply AF %d, want %d", w.resp[0], AFInet6)
		}
		for i, a := range addrs {
			want := oracle.Lookup(a)
			if got := binary.BigEndian.Uint32(w.resp[1+4*i:]); got != want {
				t.Fatalf("engine %T addr %s: reply %d, want %d", eng, a, got, want)
			}
		}
	}
}

// scalarOnly6 strips the batch refinement so the scalar dispatch arm
// is exercised.
type scalarOnly6 struct{ b *ip6.Blob }

func (e scalarOnly6) Lookup(a ip6.Addr) uint32 { return e.b.Lookup(a) }
