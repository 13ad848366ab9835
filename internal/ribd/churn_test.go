package ribd

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"fibcomp/internal/fib"
	"fibcomp/internal/gen"
	"fibcomp/internal/pdag"
	"fibcomp/internal/shardfib"
)

// TestStreamedMultiPeerEquivalence is the concurrent-churn
// correctness property: a BGP-like feed split across concurrent TCP
// peers and streamed through ribd's coalescing path — while batch
// lookups hammer the engine — leaves the engine
// forwarding-equivalent to replaying the same feed into the control
// fib.Table offline. Runs the full λ∈{8,11} × shards∈{4,16} matrix;
// `go test -race` makes it a publish/lookup race probe as well.
//
// Each prefix is hashed to one peer, so every prefix's announce /
// withdraw order is preserved inside a single session and the final
// state is independent of cross-peer interleaving — the same
// assumption a route reflector makes about per-prefix feed affinity.
func TestStreamedMultiPeerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tab, err := gen.SplitFIB(rng, 2500, []float64{0.5, 0.3, 0.15, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	us := gen.BGPUpdates(rng, tab, 1800)

	const peers = 3
	feeds := make([][]gen.Update, peers)
	for _, u := range us {
		key := uint64(u.Addr&fib.Mask(u.Len))<<6 | uint64(u.Len)
		feeds[key*0x9E3779B97F4A7C15>>32%peers] = append(feeds[key*0x9E3779B97F4A7C15>>32%peers], u)
	}

	// Control replay: apply the feed to the tabular FIB, per-prefix
	// last-op-wins (peer feeds touch disjoint prefixes, so their
	// merge order is immaterial).
	final := make(map[uint64]fib.Entry)
	for _, e := range tab.Entries {
		final[uint64(e.Addr)<<6|uint64(e.Len)] = e
	}
	for _, feed := range feeds {
		for _, u := range feed {
			addr := u.Addr & fib.Mask(u.Len)
			key := uint64(addr)<<6 | uint64(u.Len)
			if u.Withdraw {
				delete(final, key)
			} else {
				final[key] = fib.Entry{Addr: addr, Len: u.Len, NextHop: u.NextHop}
			}
		}
	}
	control := fib.New()
	for _, e := range final {
		if err := control.Add(e.Addr, e.Len, e.NextHop); err != nil {
			t.Fatal(err)
		}
	}
	control.Sort()

	probes := gen.UniformAddrs(rand.New(rand.NewSource(32)), 12000)
	// Targeted probes: first and last address under every updated
	// prefix, where LPM changes are concentrated.
	for _, u := range us {
		addr := u.Addr & fib.Mask(u.Len)
		probes = append(probes, addr, addr|^fib.Mask(u.Len))
	}

	for _, lambda := range []int{8, 11} {
		ctl, err := pdag.Build(control, lambda)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{4, 16} {
			t.Run(fmt.Sprintf("lambda=%d/shards=%d/v1", lambda, shards), func(t *testing.T) {
				eng, err := shardfib.Build(tab, lambda, shards)
				if err != nil {
					t.Fatal(err)
				}
				p := New(eng, Options{MaxStaleness: 5 * time.Millisecond})
				srv, err := Serve(p, "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}

				// A concurrent reader keeps the merged view hot while
				// publishes land — the race detector's playground.
				stop := make(chan struct{})
				var readers sync.WaitGroup
				readers.Add(1)
				go func() {
					defer readers.Done()
					dst := make([]uint32, 256)
					for i := 0; ; i += 256 {
						select {
						case <-stop:
							return
						default:
						}
						lo := i % (len(probes) - 256)
						eng.LookupBatchInto(dst, probes[lo:lo+256])
					}
				}()

				var wg sync.WaitGroup
				errs := make(chan error, peers)
				for i, feed := range feeds {
					wg.Add(1)
					go func(i int, feed []gen.Update) {
						defer wg.Done()
						c, err := net.Dial("tcp", srv.Addr().String())
						if err != nil {
							errs <- err
							return
						}
						defer c.Close()
						if err := gen.WriteUpdates(c, feed); err != nil {
							errs <- err
							return
						}
						if _, err := fmt.Fprintf(c, "sync peer%d\n", i); err != nil {
							errs <- err
							return
						}
						buf := make([]byte, 256)
						if _, err := c.Read(buf); err != nil {
							errs <- fmt.Errorf("peer %d sync reply: %v", i, err)
						}
					}(i, feed)
				}
				wg.Wait()
				close(stop)
				readers.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
				if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}

				st := p.Stats()
				if st.Applied+st.Coalesced != st.Received || st.Received != uint64(len(us)) {
					t.Fatalf("stats conservation: %+v, want received %d", st, len(us))
				}
				if st.ApplyErrors != 0 {
					t.Fatalf("apply errors: %+v", st)
				}

				// Differential sweep: scalar and batch paths against
				// the offline control replay.
				for _, a := range probes {
					if got, want := eng.Lookup(a), ctl.Lookup(a); got != want {
						t.Fatalf("diverges from control replay at %08x: %d != %d", a, got, want)
					}
				}
				dst := make([]uint32, 256)
				for lo := 0; lo+256 <= len(probes); lo += 256 {
					eng.LookupBatchInto(dst, probes[lo:lo+256])
					for j, a := range probes[lo : lo+256] {
						if want := ctl.Lookup(a); dst[j] != want {
							t.Fatalf("batch path diverges at %08x: %d != %d", a, dst[j], want)
						}
					}
				}
			})
		}
	}
}
