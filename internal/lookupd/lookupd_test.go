package lookupd

import (
	"encoding/binary"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fibcomp/internal/fib"
	"fibcomp/internal/pdag"
	"fibcomp/internal/shardfib"
	"fibcomp/internal/trie"
)

func testDAG(t *testing.T) (*pdag.DAG, *trie.Trie) {
	t.Helper()
	tb := fib.New()
	rng := rand.New(rand.NewSource(1))
	tb.Add(0, 0, 1)
	for i := 0; i < 500; i++ {
		plen := rng.Intn(20) + 8
		tb.Add(rng.Uint32()&fib.Mask(plen), plen, uint32(rng.Intn(5))+1)
	}
	tb.Dedup()
	d, err := pdag.Build(tb, 11)
	if err != nil {
		t.Fatal(err)
	}
	return d, trie.FromTable(tb)
}

func startServer(t *testing.T, l Lookuper) (*Server, *Client) {
	t.Helper()
	s, err := Listen("127.0.0.1:0", l)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c
}

func TestListenValidation(t *testing.T) {
	if _, err := Listen("127.0.0.1:0", nil); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := Listen("999.1.1.1:x", trie.New()); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestSingleLookup(t *testing.T) {
	d, oracle := testDAG(t)
	_, c := startServer(t, d)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		addr := rng.Uint32()
		got, err := c.Lookup(addr)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle.Lookup(addr); got != want {
			t.Fatalf("remote lookup %x = %d want %d", addr, got, want)
		}
	}
}

func TestBatchLookup(t *testing.T) {
	d, oracle := testDAG(t)
	s, c := startServer(t, d)
	rng := rand.New(rand.NewSource(3))
	addrs := make([]uint32, MaxBatch)
	for i := range addrs {
		addrs[i] = rng.Uint32()
	}
	labels, err := c.LookupBatch(addrs)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		if labels[i] != oracle.Lookup(a) {
			t.Fatalf("batch[%d]: %d want %d", i, labels[i], oracle.Lookup(a))
		}
	}
	if s.Lookups() != MaxBatch {
		t.Fatalf("server counted %d lookups", s.Lookups())
	}
}

func TestBatchValidation(t *testing.T) {
	d, _ := testDAG(t)
	_, c := startServer(t, d)
	if _, err := c.LookupBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := c.LookupBatch(make([]uint32, MaxBatch+1)); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

// batchEngine wraps a DAG, counting batch dispatches, to prove the
// server routes datagrams through the BatchLookuper fast path.
type batchEngine struct {
	d       *pdag.DAG
	batches atomic.Int64
}

func (e *batchEngine) Lookup(a uint32) uint32 { return e.d.Lookup(a) }

func (e *batchEngine) LookupBatch(addrs []uint32) []uint32 {
	e.batches.Add(1)
	out := make([]uint32, len(addrs))
	for i, a := range addrs {
		out[i] = e.d.Lookup(a)
	}
	return out
}

func TestBatchDispatch(t *testing.T) {
	d, oracle := testDAG(t)
	eng := &batchEngine{d: d}
	_, c := startServer(t, eng)
	rng := rand.New(rand.NewSource(4))
	addrs := make([]uint32, 64)
	for i := range addrs {
		addrs[i] = rng.Uint32()
	}
	labels, err := c.LookupBatch(addrs)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		if want := oracle.Lookup(a); labels[i] != want {
			t.Fatalf("batch[%d]: %d want %d", i, labels[i], want)
		}
	}
	if eng.batches.Load() == 0 {
		t.Fatal("server ignored the BatchLookuper fast path")
	}
}

// TestShardedEngineEndToEnd serves a real sharded FIB over UDP and
// checks remote answers against the uncompressed oracle.
func TestShardedEngineEndToEnd(t *testing.T) {
	tb := fib.New()
	rng := rand.New(rand.NewSource(5))
	tb.Add(0, 0, 1)
	for i := 0; i < 500; i++ {
		plen := rng.Intn(20) + 8
		tb.Add(rng.Uint32()&fib.Mask(plen), plen, uint32(rng.Intn(5))+1)
	}
	tb.Dedup()
	f, err := shardfib.Build(tb, 11, 16)
	if err != nil {
		t.Fatal(err)
	}
	oracle := trie.FromTable(tb)
	_, c := startServer(t, f)
	addrs := make([]uint32, MaxBatch)
	for i := range addrs {
		addrs[i] = rng.Uint32()
	}
	labels, err := c.LookupBatch(addrs)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		if want := oracle.Lookup(a); labels[i] != want {
			t.Fatalf("sharded batch[%d]: %d want %d", i, labels[i], want)
		}
	}
}

func TestMalformedDatagramDropped(t *testing.T) {
	d, _ := testDAG(t)
	s, c := startServer(t, d)
	// Hand-roll a 3-byte datagram: the server must drop it silently.
	raw, err := net.Dial("udp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// The server must still answer well-formed requests afterwards.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s.Errors() > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if s.Errors() == 0 {
		t.Fatal("malformed datagram not counted")
	}
	if _, err := c.Lookup(0x0A000001); err != nil {
		t.Fatalf("server wedged after malformed datagram: %v", err)
	}
}

func TestSwapUnderLoad(t *testing.T) {
	d, _ := testDAG(t)
	s, _ := startServer(t, d)

	alt := trie.New()
	alt.Insert(0, 0, 9) // everything → 9

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(s.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Lookup(rng.Uint32()); err != nil {
					t.Errorf("lookup during swap: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			s.Swap(alt)
		} else {
			s.Swap(d)
		}
	}
	close(stop)
	wg.Wait()

	// Settle on alt and verify it is serving.
	s.Swap(alt)
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Lookup(0x12345678)
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Fatalf("after swap: lookup = %d want 9", got)
	}
}

func TestCloseIdempotent(t *testing.T) {
	d, _ := testDAG(t)
	s, err := Listen("127.0.0.1:0", d)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second close should be a no-op")
	}
}

// TestShutdownGraceful: Shutdown answers requests already accepted,
// refuses new ones, and is idempotent with Close in either order.
func TestShutdownGraceful(t *testing.T) {
	d, _ := testDAG(t)
	s, c := startServer(t, d)
	// Traffic beforehand proves the serve loop is live.
	if _, err := c.Lookup(0x0A000001); err != nil {
		t.Fatal(err)
	}
	served := s.Lookups()
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if got := s.Lookups(); got != served {
		t.Fatalf("lookups changed across an idle shutdown: %d != %d", got, served)
	}
	// The socket is gone: a new request cannot be answered.
	c2, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if _, err := c2.Lookup(0x0A000001); err == nil {
		t.Fatal("lookup served after Shutdown")
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal("second shutdown should be a no-op")
	}
	if err := s.Close(); err != nil {
		t.Fatal("close after shutdown should be a no-op")
	}
}

// TestHandleZeroAllocs pins the serve loop's contract: processing a
// full-size datagram against a batch engine with a loop-owned wire
// buffer touches the heap zero times.
func TestHandleZeroAllocs(t *testing.T) {
	tb := fib.New()
	rng := rand.New(rand.NewSource(9))
	tb.Add(0, 0, 1)
	for i := 0; i < 2000; i++ {
		plen := rng.Intn(20) + 8
		tb.Add(rng.Uint32()&fib.Mask(plen), plen, uint32(rng.Intn(5))+1)
	}
	tb.Dedup()
	f, err := shardfib.Build(tb, 11, 16)
	if err != nil {
		t.Fatal(err)
	}
	w := new(wire)
	n := 4 * MaxBatch
	for i := 0; i < MaxBatch; i++ {
		binary.BigEndian.PutUint32(w.req[4*i:], rng.Uint32())
	}
	var l Lookuper = f
	handleAt(l, w.req[:], w.resp[:], &w.scratch, 0, n) // warm shardfib's internal pools
	allocs := testing.AllocsPerRun(200, func() {
		if got := handleAt(l, w.req[:], w.resp[:], &w.scratch, 0, n); got != MaxBatch {
			t.Fatalf("handle returned %d, want %d", got, MaxBatch)
		}
	})
	if allocs != 0 {
		t.Fatalf("handle allocated %.2f times per datagram, want 0", allocs)
	}
	// The flat serialized blob — fibserve's -shards 1 engine — must be
	// allocation-free through the same path.
	d, err := pdag.Build(tb, 11)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := d.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	l = blob
	handleAt(l, w.req[:], w.resp[:], &w.scratch, 0, n)
	allocs = testing.AllocsPerRun(200, func() {
		handleAt(l, w.req[:], w.resp[:], &w.scratch, 0, n)
	})
	if allocs != 0 {
		t.Fatalf("blob handle allocated %.2f times per datagram, want 0", allocs)
	}
}

// TestHandleMatchesLookup cross-checks the wire encode/decode against
// direct engine lookups for the scalar and LookupBatchInto dispatch
// flavors; TestHandleBatchLookuperDispatch covers the plain
// BatchLookuper branch.
func TestHandleMatchesLookup(t *testing.T) {
	d, _ := testDAG(t)
	blob, err := d.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	w := new(wire)
	count := 37 // not a lane multiple
	for i := 0; i < count; i++ {
		binary.BigEndian.PutUint32(w.req[4*i:], rng.Uint32())
	}
	for _, eng := range []Lookuper{d, blob} {
		if got := handleAt(eng, w.req[:], w.resp[:], &w.scratch, 0, 4*count); got != count {
			t.Fatalf("handle returned %d, want %d", got, count)
		}
		for i := 0; i < count; i++ {
			a := binary.BigEndian.Uint32(w.req[4*i:])
			want := eng.Lookup(a)
			if got := binary.BigEndian.Uint32(w.resp[4*i:]); got != want {
				t.Fatalf("engine %T addr %08x: reply %d, want %d", eng, a, got, want)
			}
		}
	}
}

// batchOnlyEngine implements BatchLookuper but not the LookupBatchInto
// refinement — the dispatch shape an external engine would present.
type batchOnlyEngine struct{ d *pdag.DAG }

func (e batchOnlyEngine) Lookup(addr uint32) uint32 { return e.d.Lookup(addr) }
func (e batchOnlyEngine) LookupBatch(addrs []uint32) []uint32 {
	out := make([]uint32, len(addrs))
	for i, a := range addrs {
		out[i] = e.d.Lookup(a)
	}
	return out
}

// TestHandleBatchLookuperDispatch covers the middle dispatch branch:
// an engine offering only LookupBatch must get whole datagrams and
// produce the same replies as scalar lookups.
func TestHandleBatchLookuperDispatch(t *testing.T) {
	d, _ := testDAG(t)
	eng := batchOnlyEngine{d}
	var _ BatchLookuper = eng // compile-time: hits the BatchLookuper case
	rng := rand.New(rand.NewSource(11))
	w := new(wire)
	count := 19
	for i := 0; i < count; i++ {
		binary.BigEndian.PutUint32(w.req[4*i:], rng.Uint32())
	}
	if got := handleAt(eng, w.req[:], w.resp[:], &w.scratch, 0, 4*count); got != count {
		t.Fatalf("handle returned %d, want %d", got, count)
	}
	for i := 0; i < count; i++ {
		a := binary.BigEndian.Uint32(w.req[4*i:])
		if got, want := binary.BigEndian.Uint32(w.resp[4*i:]), d.Lookup(a); got != want {
			t.Fatalf("addr %08x: reply %d, want %d", a, got, want)
		}
	}
}
