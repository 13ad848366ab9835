package shardfib

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fibcomp/internal/ip6"
	"fibcomp/internal/obs"
	"fibcomp/internal/trie"
)

func testTable6(t *testing.T, n int, seed int64) *ip6.Table {
	t.Helper()
	tab, err := ip6.SplitFIB(rand.New(rand.NewSource(seed)), n, []float64{0.5, 0.3, 0.15, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func probes6(t *ip6.Table, rng *rand.Rand, uniform int) []ip6.Addr {
	probes := ip6.RandomAddrs(rng, uniform)
	for _, e := range t.Entries {
		m := ip6.Mask(e.Len)
		probes = append(probes,
			e.Addr,
			ip6.Addr{Hi: e.Addr.Hi | ^m.Hi, Lo: e.Addr.Lo | ^m.Lo})
	}
	return probes
}

// TestEquivalence6AcrossLambdas is the IPv6 differential matrix: the
// sharded engine's scalar and batched paths against the flat ip6 DAG
// across the barriers an engine serves, [k, MaxLambda], and the
// constructor's refusal of the rest.
func TestEquivalence6AcrossLambdas(t *testing.T) {
	tab := testTable6(t, 3000, 71)
	rng := rand.New(rand.NewSource(72))
	addrs := probes6(tab, rng, 4096)
	for _, lambda := range []int{0, 2, 8, 11, 16, 26} {
		for _, shards := range []int{4, 16} {
			flat, err := ip6.Build(tab, lambda)
			if err != nil {
				t.Fatal(err)
			}
			f, err := Build6(tab, lambda, shards)
			if served := shards <= 1<<lambda && lambda <= MaxLambda; !served {
				if err == nil {
					t.Fatalf("λ=%d shards=%d: constructor accepted a barrier outside [k,%d]", lambda, shards, MaxLambda)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]uint32, len(addrs))
			f.LookupBatchInto(dst, addrs)
			for i, a := range addrs {
				want := flat.Lookup(a)
				if dst[i] != want {
					t.Fatalf("λ=%d shards=%d batch addr %s: got %d, want %d", lambda, shards, a, dst[i], want)
				}
				if got := f.Lookup(a); got != want {
					t.Fatalf("λ=%d shards=%d scalar addr %s: got %d, want %d", lambda, shards, a, got, want)
				}
			}
			// Updates — including short prefixes replicated across
			// shards — must keep every mode equivalent.
			for j := 0; j < 50; j++ {
				plen := 1 + rng.Intn(ip6.W)
				a := ip6.Canonical(ip6.Addr{Hi: rng.Uint64(), Lo: rng.Uint64()}, plen)
				label := 1 + uint32(rng.Intn(50))
				if err := flat.Set(a, plen, label); err != nil {
					t.Fatal(err)
				}
				if err := f.Set(a, plen, label); err != nil {
					t.Fatal(err)
				}
			}
			f.LookupBatchInto(dst, addrs[:512])
			for i, a := range addrs[:512] {
				if want := flat.Lookup(a); dst[i] != want {
					t.Fatalf("λ=%d shards=%d post-update addr %s: got %d, want %d", lambda, shards, a, dst[i], want)
				}
			}
		}
	}
}

// TestApplyBatch6Equivalence drives the batched IPv6 write path and a
// Set/Delete-per-op twin with the same update sequence and checks
// they converge to the same forwarding state, with no-op squashing
// reflected in the mutated count.
func TestApplyBatch6Equivalence(t *testing.T) {
	tab := testTable6(t, 1500, 73)
	rng := rand.New(rand.NewSource(74))
	addrs := probes6(tab, rng, 2048)
	for _, lambda := range []int{11, 16} {
		for _, shards := range []int{4, 16} {
			t.Run(fmt.Sprintf("v1/lambda=%d/shards=%d", lambda, shards), func(t *testing.T) {
				batched, err := Build6(tab, lambda, shards)
				if err != nil {
					t.Fatal(err)
				}
				serial, err := Build6(tab, lambda, shards)
				if err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 10; round++ {
					ops := make([]Op6, 64)
					for i := range ops {
						plen := 1 + rng.Intn(64)
						ops[i] = Op6{
							Addr: ip6.Canonical(ip6.Addr{Hi: 0x2000000000000000 | rng.Uint64()>>3, Lo: rng.Uint64()}, plen),
							Len:  plen,
						}
						if rng.Intn(4) != 0 {
							ops[i].Label = 1 + uint32(rng.Intn(100))
						}
					}
					mutated, err := batched.ApplyBatch(ops)
					if err != nil {
						t.Fatal(err)
					}
					real := 0
					for _, op := range ops {
						if op.Label == ip6.NoLabel {
							if serial.Delete(op.Addr, op.Len) {
								real++
							}
						} else {
							if serial.shards[serial.ShardOf(op.Addr)].dag.Control().GetKey(trie.Key(op.Addr), op.Len) != op.Label {
								real++
							}
							if err := serial.Set(op.Addr, op.Len, op.Label); err != nil {
								t.Fatal(err)
							}
						}
					}
					if mutated > len(ops) || mutated != real {
						t.Fatalf("round %d: mutated %d, serial counted %d", round, mutated, real)
					}
					for _, a := range addrs[:512] {
						if got, want := batched.Lookup(a), serial.Lookup(a); got != want {
							t.Fatalf("round %d addr %s: batched %d, serial %d", round, a, got, want)
						}
					}
				}
				dst := make([]uint32, 256)
				for lo := 0; lo+256 <= len(addrs); lo += 256 {
					batched.LookupBatchInto(dst, addrs[lo:lo+256])
					for j, a := range addrs[lo : lo+256] {
						if want := serial.Lookup(a); dst[j] != want {
							t.Fatalf("final batch addr %s: %d != %d", a, dst[j], want)
						}
					}
				}
			})
		}
	}
}

// TestRepublish6ZeroAllocs proves the v6 write-side contract: once
// every shard has retired a buffer, steady-churn IPv6 republishing
// through ApplyBatch allocates nothing per batch — the arena's
// persistent stamps and the double-buffered snapshots working
// together, exactly like the IPv4 engine.
func TestRepublish6ZeroAllocs(t *testing.T) {
	tab := testTable6(t, 2000, 75)
	f, err := Build6(tab, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Instrumented throughout: the 0-alloc contract must hold with the
	// publish histogram and trace ring live.
	ins := &Instruments{PublishSeconds: obs.NewHistogram(1e-9), Trace: obs.NewTraceRing(64)}
	f.SetInstruments(ins)
	rng := rand.New(rand.NewSource(76))
	// A fixed op set with alternating labels: every batch mutates
	// every prefix, so each round republishes its touched shards.
	ops := make([]Op6, 64)
	for i := range ops {
		plen := 20 + rng.Intn(45)
		ops[i] = Op6{
			Addr: ip6.Canonical(ip6.Addr{Hi: 0x2000000000000000 | rng.Uint64()>>3, Lo: rng.Uint64()}, plen),
			Len:  plen,
		}
	}
	apply := func(round int) {
		for i := range ops {
			ops[i].Label = 1 + uint32(round&1)
		}
		if _, err := f.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 8; r++ { // warm double buffers and scratch
		apply(r)
	}
	r := 0
	allocs := testing.AllocsPerRun(200, func() {
		apply(r)
		r++
	})
	if allocs != 0 {
		t.Fatalf("steady-churn v6 republish allocated %.2f times per batch, want 0", allocs)
	}
	if ins.PublishSeconds.Count() == 0 {
		t.Fatal("publish histogram recorded nothing")
	}
	if evs := ins.Trace.Snapshot(); len(evs) == 0 || evs[0].Family != 6 || evs[0].Ops != 64 {
		t.Fatalf("trace ring misrecorded the v6 batches: %+v", evs)
	}
}

// TestBatchLookup6ZeroAllocs pins the read-side contract for the v6
// merged view.
func TestBatchLookup6ZeroAllocs(t *testing.T) {
	tab := testTable6(t, 2000, 77)
	f, err := Build6(tab, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	addrs := ip6.RandomAddrs(rand.New(rand.NewSource(78)), 256)
	dst := make([]uint32, len(addrs))
	f.LookupBatchInto(dst, addrs)
	allocs := testing.AllocsPerRun(500, func() {
		f.LookupBatchInto(dst, addrs)
	})
	if allocs != 0 {
		t.Fatalf("v6 batch lookup allocated %.2f times per batch, want 0", allocs)
	}
}

// TestRecycle6UnderReaders is the -race stress for the v6 buffer
// recycling: batched readers continuously pin merged views while a
// writer churns hard enough that every publish wants the buffers the
// readers may still hold; afterwards the engine must match a flat DAG
// fed the same sequence.
func TestRecycle6UnderReaders(t *testing.T) {
	tab := testTable6(t, 1500, 79)
	f, err := Build6(tab, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := ip6.Build(tab, 16)
	if err != nil {
		t.Fatal(err)
	}
	addrs := ip6.RandomAddrs(rand.New(rand.NewSource(80)), 1024)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan string, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]uint32, 256)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				off := (i * 256) % len(addrs)
				batch := addrs[off : off+256]
				f.LookupBatchInto(dst, batch)
				for j, label := range dst {
					if label > ip6.MaxLabel {
						select {
						case fail <- fmt.Sprintf("addr %s: label %d outside alphabet", batch[j], label):
						default:
						}
						return
					}
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(81))
	for i := 0; i < 1500; i++ {
		plen := 8 + rng.Intn(57)
		a := ip6.Canonical(ip6.Addr{Hi: 0x2000000000000000 | rng.Uint64()>>3, Lo: rng.Uint64()}, plen)
		if i%3 == 0 {
			f.Delete(a, plen)
			flat.Delete(a, plen)
		} else {
			label := 1 + uint32(rng.Intn(100))
			if err := f.Set(a, plen, label); err != nil {
				t.Fatal(err)
			}
			if err := flat.Set(a, plen, label); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	got := f.LookupBatch(addrs)
	for i, a := range addrs {
		if want := flat.Lookup(a); got[i] != want {
			t.Fatalf("post-churn addr %s: sharded %d, flat %d", a, got[i], want)
		}
	}
}

// TestReload6 hot-swaps the whole v6 table and checks the engine
// flips to the new routes.
func TestReload6(t *testing.T) {
	tab := testTable6(t, 800, 82)
	f, err := Build6(tab, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	next := testTable6(t, 800, 83)
	if err := f.Reload(next); err != nil {
		t.Fatal(err)
	}
	flat, err := ip6.Build(next, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range probes6(next, rand.New(rand.NewSource(84)), 2048) {
		if got, want := f.Lookup(a), flat.Lookup(a); got != want {
			t.Fatalf("post-reload addr %s: got %d, want %d", a, got, want)
		}
	}
}
