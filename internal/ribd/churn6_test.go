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
	"fibcomp/internal/ip6"
	"fibcomp/internal/shardfib"
)

// TestStreamedMultiPeerEquivalence6 is the IPv6 arm of the
// concurrent-churn property: a v6 BGP-like feed hash-partitioned
// across concurrent TCP peers and streamed through the dual-stack
// plane's coalescing path — while batch lookups hammer the v6 engine
// — leaves the engine forwarding-equivalent to replaying the same
// feed into an offline ip6.Table, across λ∈{11,16} × shards∈{4,16}.
// The same per-prefix peer affinity assumption as the v4 test makes
// the final state independent of cross-peer interleaving; `go test
// -race` turns the concurrent readers into a publish/lookup race
// probe over the v6 merged view.
func TestStreamedMultiPeerEquivalence6(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	tab, err := ip6.SplitFIB(rng, 2000, []float64{0.5, 0.3, 0.15, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	us := gen.BGPUpdates6(rng, tab, 1500)

	const peers = 3
	feeds := make([][]gen.Update, peers)
	for _, u := range us {
		a := ip6.Canonical(u.Addr6, u.Len)
		h := (a.Hi ^ a.Lo ^ uint64(u.Len)) * 0x9E3779B97F4A7C15
		feeds[h>>32%peers] = append(feeds[h>>32%peers], u)
	}

	// Control replay: per-prefix last-op-wins over the tabular FIB.
	type pkey struct {
		hi, lo uint64
		plen   int
	}
	final := make(map[pkey]ip6.Entry)
	for _, e := range tab.Entries {
		final[pkey{e.Addr.Hi, e.Addr.Lo, e.Len}] = e
	}
	for _, feed := range feeds {
		for _, u := range feed {
			a := ip6.Canonical(u.Addr6, u.Len)
			key := pkey{a.Hi, a.Lo, u.Len}
			if u.Withdraw {
				delete(final, key)
			} else {
				final[key] = ip6.Entry{Addr: a, Len: u.Len, NextHop: u.NextHop}
			}
		}
	}
	control := ip6.New()
	for _, e := range final {
		if err := control.Add(e.Addr, e.Len, e.NextHop); err != nil {
			t.Fatal(err)
		}
	}

	probes := ip6.RandomAddrs(rand.New(rand.NewSource(92)), 8000)
	// Targeted probes: first and last address under every updated
	// prefix, where LPM changes concentrate.
	for _, u := range us {
		a := ip6.Canonical(u.Addr6, u.Len)
		m := ip6.Mask(u.Len)
		probes = append(probes, a, ip6.Addr{Hi: a.Hi | ^m.Hi, Lo: a.Lo | ^m.Lo})
	}

	for _, lambda := range []int{11, 16} {
		ctl, err := ip6.Build(control, lambda)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{4, 16} {
			t.Run(fmt.Sprintf("lambda=%d/shards=%d", lambda, shards), func(t *testing.T) {
				// A dual plane over a tiny v4 engine and the v6 engine
				// under test: the v4 table stays untouched by the v6
				// feed, proving family isolation along the way.
				eng4, err := shardfib.Build(fib.MustParse("0.0.0.0/0 7"), 11, 4)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := shardfib.Build6(tab, lambda, shards)
				if err != nil {
					t.Fatal(err)
				}
				p := NewDual(eng4, eng, Options{MaxStaleness: 5 * time.Millisecond})
				srv, err := Serve(p, "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}

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
				if st.Rejected != 0 || st.ApplyErrors != 0 {
					t.Fatalf("rejected/apply errors: %+v", st)
				}

				// Family isolation: the v4 engine still serves its one
				// route, untouched by 1500 v6 updates.
				if got := eng4.Lookup(0x01020304); got != 7 {
					t.Fatalf("v4 engine perturbed by v6 feed: got %d, want 7", got)
				}

				// Differential sweep: scalar and batch paths against
				// the offline control replay.
				for _, a := range probes {
					if got, want := eng.Lookup(a), ctl.Lookup(a); got != want {
						t.Fatalf("diverges from control replay at %s: %d != %d", a, got, want)
					}
				}
				dst := make([]uint32, 256)
				for lo := 0; lo+256 <= len(probes); lo += 256 {
					eng.LookupBatchInto(dst, probes[lo:lo+256])
					for j, a := range probes[lo : lo+256] {
						if want := ctl.Lookup(a); dst[j] != want {
							t.Fatalf("batch path diverges at %s: %d != %d", a, dst[j], want)
						}
					}
				}
			})
		}
	}
}

// TestStreamedDirtyRepublishEquivalence6 is the incremental-republish
// property under live churn (the name dates from the group-dirty
// serializer it was written against): multi-peer v6 feeds streamed
// through the dual plane into an engine whose every republish appends
// the batch's new nodes to the arena and rewrites the dirty shards'
// windows, while concurrent batched readers hammer the merged view
// under -race. The served snapshots must end bit-identical (lookup for
// lookup) to a FULL serialize of an independent DAG holding the same
// routes and to the offline control replay; a node the append missed,
// or a window left pointing at a stale index, would surface as a
// divergence.
func TestStreamedDirtyRepublishEquivalence6(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	tab, err := ip6.SplitFIB(rng, 2000, []float64{0.5, 0.3, 0.15, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	us := gen.BGPUpdates6(rng, tab, 1500)

	const peers = 3
	feeds := make([][]gen.Update, peers)
	for _, u := range us {
		a := ip6.Canonical(u.Addr6, u.Len)
		h := (a.Hi ^ a.Lo ^ uint64(u.Len)) * 0x9E3779B97F4A7C15
		feeds[h>>32%peers] = append(feeds[h>>32%peers], u)
	}

	type pkey struct {
		hi, lo uint64
		plen   int
	}
	final := make(map[pkey]ip6.Entry)
	for _, e := range tab.Entries {
		final[pkey{e.Addr.Hi, e.Addr.Lo, e.Len}] = e
	}
	for _, feed := range feeds {
		for _, u := range feed {
			a := ip6.Canonical(u.Addr6, u.Len)
			key := pkey{a.Hi, a.Lo, u.Len}
			if u.Withdraw {
				delete(final, key)
			} else {
				final[key] = ip6.Entry{Addr: a, Len: u.Len, NextHop: u.NextHop}
			}
		}
	}
	control := ip6.New()
	for _, e := range final {
		if err := control.Add(e.Addr, e.Len, e.NextHop); err != nil {
			t.Fatal(err)
		}
	}

	probes := ip6.RandomAddrs(rand.New(rand.NewSource(96)), 8000)
	for _, u := range us {
		a := ip6.Canonical(u.Addr6, u.Len)
		m := ip6.Mask(u.Len)
		probes = append(probes, a, ip6.Addr{Hi: a.Hi | ^m.Hi, Lo: a.Lo | ^m.Lo})
	}

	const lambda = 16
	// The full-serialize reference: a DAG that never saw the churn,
	// frozen once from the control replay.
	flatCtl, err := ip6.Build(control, lambda)
	if err != nil {
		t.Fatal(err)
	}
	full, err := flatCtl.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng4, err := shardfib.Build(fib.MustParse("0.0.0.0/0 7"), 11, 4)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := shardfib.Build6(tab, lambda, shards)
			if err != nil {
				t.Fatal(err)
			}
			p := NewDual(eng4, eng, Options{MaxStaleness: 5 * time.Millisecond})
			srv, err := Serve(p, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}

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

			// Incrementally republished snapshots vs full serialize
			// and control replay, scalar and batch.
			dst := make([]uint32, 256)
			for lo := 0; lo+256 <= len(probes); lo += 256 {
				eng.LookupBatchInto(dst, probes[lo:lo+256])
				for j, a := range probes[lo : lo+256] {
					want := flatCtl.Control().Lookup(a)
					if got := full.Lookup(a); got != want {
						t.Fatalf("full serialize diverges from control at %s: %d != %d", a, got, want)
					}
					if dst[j] != want {
						t.Fatalf("republished engine diverges at %s: %d != %d", a, dst[j], want)
					}
					if got := eng.Lookup(a); got != want {
						t.Fatalf("republished scalar diverges at %s: %d != %d", a, got, want)
					}
				}
			}
		})
	}
}

// TestV6RejectedOnV4OnlyPlane pins the v4-only plane's contract: v6
// updates are counted as rejected, never crash the flusher, and leave
// the v4 engine untouched.
func TestV6RejectedOnV4OnlyPlane(t *testing.T) {
	eng, err := shardfib.Build(fib.MustParse("10.0.0.0/8 3"), 11, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := New(eng, Options{MaxStaleness: time.Millisecond})
	defer p.Close()
	a, plen, err := ip6.ParsePrefix("2001:db8::/32")
	if err != nil {
		t.Fatal(err)
	}
	p.Enqueue(gen.Update{Addr6: a, Len: plen, NextHop: 5, V6: true})
	p.Enqueue(gen.Update{Addr: 0x0A000000, Len: 8, NextHop: 4})
	p.Sync()
	st := p.Stats()
	if st.Rejected != 1 || st.Received != 1 {
		t.Fatalf("stats: %+v, want 1 rejected + 1 received", st)
	}
	if got := eng.Lookup(0x0A000001); got != 4 {
		t.Fatalf("v4 update lost: got %d, want 4", got)
	}
}
