package lookupd

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"fibcomp/internal/fib"
	"fibcomp/internal/ip6"
	"fibcomp/internal/shardfib"
	"fibcomp/internal/trie"
)

// parallelEngines builds two interchangeable engine pairs — the same
// tables compiled to 16 and to 4 shards — plus both family
// oracles. Swapping between the pairs changes the serving machinery
// but never an answer, which is what lets the equivalence test assert
// bit-identical replies while Swap/Swap6 run full tilt.
func parallelEngines(t *testing.T) (f4a, f4b *shardfib.FIB, f6a, f6b *shardfib.FIB6, o4 *trie.Trie, o6 *ip6.Trie) {
	t.Helper()
	tb := fib.New()
	rng := rand.New(rand.NewSource(31))
	tb.Add(0, 0, 1)
	for i := 0; i < 800; i++ {
		plen := rng.Intn(20) + 8
		tb.Add(rng.Uint32()&fib.Mask(plen), plen, uint32(rng.Intn(5))+1)
	}
	tb.Dedup()
	var err error
	if f4a, err = shardfib.Build(tb, 11, 16); err != nil {
		t.Fatal(err)
	}
	if f4b, err = shardfib.Build(tb, 11, 4); err != nil {
		t.Fatal(err)
	}
	t6, err := ip6.SplitFIB(rng, 1500, []float64{0.6, 0.25, 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if f6a, err = shardfib.Build6(t6, 16, 16); err != nil {
		t.Fatal(err)
	}
	if f6b, err = shardfib.Build6(t6, 16, 4); err != nil {
		t.Fatal(err)
	}
	return f4a, f4b, f6a, f6b, trie.FromTable(tb), ip6.FromTable(t6)
}

// TestParallelServeEquivalence is the scale-out correctness gate: a
// 4-worker sharded server under concurrent Swap/Swap6 churn and
// mixed-family load from 4 client sockets must answer every request
// bit-identically to the single-loop oracle. Run under -race this
// also sweeps the per-worker stats, per-burst pins and reuseport
// socket handoff for data races.
func TestParallelServeEquivalence(t *testing.T) {
	f4a, f4b, f6a, f6b, o4, o6 := parallelEngines(t)
	s, err := ListenOptions("127.0.0.1:0", f4a, f6a, Options{Workers: 4, ReusePort: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if got := s.Workers(); got != 4 {
		t.Fatalf("Workers() = %d, want 4", got)
	}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				s.Swap(f4b)
				s.Swap6(f6b)
			} else {
				s.Swap(f4a)
				s.Swap6(f6a)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	var clients sync.WaitGroup
	for cl := 0; cl < 4; cl++ {
		clients.Add(1)
		go func(cl int) {
			defer clients.Done()
			c, err := Dial(s.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(100 + cl)))
			addrs4 := make([]uint32, 64)
			for iter := 0; iter < 50; iter++ {
				for i := range addrs4 {
					addrs4[i] = rng.Uint32()
				}
				var labels []uint32
				var err error
				if iter%2 == 0 {
					labels, err = c.LookupBatch(addrs4)
				} else {
					labels, err = c.LookupBatchTagged4(addrs4)
				}
				if err != nil {
					t.Errorf("client %d iter %d v4: %v", cl, iter, err)
					return
				}
				for i, a := range addrs4 {
					if want := o4.Lookup(a); labels[i] != want {
						t.Errorf("client %d v4 %08x: %d want %d", cl, a, labels[i], want)
						return
					}
				}
				addrs6 := ip6.RandomAddrs(rng, 64)
				labels6, err := c.LookupBatch6(addrs6)
				if err != nil {
					t.Errorf("client %d iter %d v6: %v", cl, iter, err)
					return
				}
				for i, a := range addrs6 {
					if want := o6.Lookup(a); labels6[i] != want {
						t.Errorf("client %d v6 %s: %d want %d", cl, a, labels6[i], want)
						return
					}
				}
			}
		}(cl)
	}
	clients.Wait()
	close(stop)
	swapper.Wait()

	if got, want := s.Lookups(), uint64(4*50*(64+64)); got != want {
		t.Fatalf("aggregated lookups = %d, want %d", got, want)
	}
	if got := s.Errors(); got != 0 {
		t.Fatalf("aggregated errors = %d, want 0", got)
	}
}

// TestSharedSocketWorkers is the reuseport=false fallback: N loops
// over one socket must serve correctly too (this is the only
// multi-worker topology off Linux).
func TestSharedSocketWorkers(t *testing.T) {
	f4a, _, f6a, _, o4, _ := parallelEngines(t)
	s, err := ListenOptions("127.0.0.1:0", f4a, f6a, Options{Workers: 3, ReusePort: false})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if s.ShardedSockets() {
		t.Fatal("ReusePort: false produced sharded sockets")
	}
	var wg sync.WaitGroup
	for cl := 0; cl < 3; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c, err := Dial(s.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(200 + cl)))
			for iter := 0; iter < 30; iter++ {
				a := rng.Uint32()
				got, err := c.Lookup(a)
				if err != nil {
					t.Errorf("client %d: %v", cl, err)
					return
				}
				if want := o4.Lookup(a); got != want {
					t.Errorf("client %d %08x: %d want %d", cl, a, got, want)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
}

// TestReusePortSpreadsLoad drives a sharded server from many distinct
// client sockets and checks that more than one worker's stats slot
// saw traffic — i.e. the kernel actually flow-hashed across the
// socket group. Skipped where reuseport is unavailable.
func TestReusePortSpreadsLoad(t *testing.T) {
	if !reusePortSupported {
		t.Skip("no SO_REUSEPORT on this platform")
	}
	f4a, _, _, _, _, _ := parallelEngines(t)
	s, err := ListenOptions("127.0.0.1:0", f4a, nil, Options{Workers: 4, ReusePort: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if !s.ShardedSockets() {
		t.Fatal("reuseport server did not shard its sockets")
	}
	// Each Dial binds a fresh ephemeral source port, giving the flow
	// hash a different 4-tuple; 64 sockets make all-on-one-worker
	// vanishingly unlikely (4^-63).
	for i := 0; i < 64; i++ {
		c, err := Dial(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Lookup(uint32(i) * 0x01010101); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	busy := 0
	for i := range s.stats {
		if s.stats[i].requests.Load() > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("all 64 flows landed on %d worker(s); reuseport not spreading", busy)
	}
}

// TestParallelShutdownDrains pins the N-socket Shutdown fix: with 4
// workers parked in reads on 4 separate sockets, Shutdown must
// unblock every loop (read deadline on every conn, not just the
// first) and return promptly instead of leaking three workers.
func TestParallelShutdownDrains(t *testing.T) {
	f4a, _, f6a, _, _, _ := parallelEngines(t)
	for _, reuse := range []bool{true, false} {
		s, err := ListenOptions("127.0.0.1:0", f4a, f6a, Options{Workers: 4, ReusePort: reuse})
		if err != nil {
			t.Fatal(err)
		}
		c, err := Dial(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Lookup(0x0A000001); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- s.Shutdown() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("reuseport=%v: shutdown: %v", reuse, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("reuseport=%v: shutdown leaked a worker (4 conns, drain did not reach all)", reuse)
		}
		c.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		if _, err := c.Lookup(0x0A000001); err == nil {
			t.Fatalf("reuseport=%v: lookup served after Shutdown", reuse)
		}
		c.Close()
	}
}

// TestWorkersValidation bounds the Options surface.
func TestWorkersValidation(t *testing.T) {
	f4a, _, _, _, _, _ := parallelEngines(t)
	if _, err := ListenOptions("127.0.0.1:0", f4a, nil, Options{Workers: MaxWorkers + 1}); err == nil {
		t.Fatal("absurd worker count accepted")
	}
	s, err := ListenOptions("127.0.0.1:0", f4a, nil, Options{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Workers(); got != 1 {
		t.Fatalf("Workers: 0 gave %d loops, want 1", got)
	}
}

// TestLookupBatchTagged4EndToEnd exercises the AF-4-tagged framing
// over the wire — served since PR 5, client-reachable as of this PR —
// and checks it answers identically to the legacy framing.
func TestLookupBatchTagged4EndToEnd(t *testing.T) {
	f4a, _, _, _, o4, _ := parallelEngines(t)
	s, err := Listen("127.0.0.1:0", f4a)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	rng := rand.New(rand.NewSource(33))
	addrs := make([]uint32, MaxBatch)
	for i := range addrs {
		addrs[i] = rng.Uint32()
	}
	tagged, err := c.LookupBatchTagged4(addrs)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := c.LookupBatch(addrs)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		if want := o4.Lookup(a); tagged[i] != want || legacy[i] != want {
			t.Fatalf("addr %08x: tagged %d legacy %d want %d", a, tagged[i], legacy[i], want)
		}
	}
	if _, err := c.LookupBatchTagged4(nil); err == nil {
		t.Fatal("empty tagged batch accepted")
	}
	if _, err := c.LookupBatchTagged4(make([]uint32, MaxBatch+1)); err == nil {
		t.Fatal("oversized tagged batch accepted")
	}
}
