package shardfib

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fibcomp/internal/fib"
	"fibcomp/internal/gen"
	"fibcomp/internal/pdag"
)

// TestRepublishZeroAllocs proves the write-side contract of the
// double-buffered publish: once every shard has retired a buffer
// (two publishes per touched shard), a steady stream of updates
// republishes with zero heap allocations.
func TestRepublishZeroAllocs(t *testing.T) {
	tab := testTable(t, 4000, 11)
	f, err := Build(tab, 11, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	us := gen.RandomUpdates(rng, tab, 2048)
	apply := func(u gen.Update) {
		if u.Withdraw {
			f.Delete(u.Addr, u.Len)
		} else if err := f.Set(u.Addr, u.Len, u.NextHop); err != nil {
			t.Fatal(err)
		}
	}
	// Warm every shard's double buffer and the serializer's
	// high-water marks.
	for _, u := range us {
		apply(u)
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		apply(us[i&2047])
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-churn republish allocated %.2f times per update, want 0", allocs)
	}
}

// TestBatchLookupZeroAllocs pins the read-side contract: the bucketed
// batch path reuses pooled scratch and allocates nothing per batch.
func TestBatchLookupZeroAllocs(t *testing.T) {
	tab := testTable(t, 4000, 13)
	f, err := Build(tab, 11, 16)
	if err != nil {
		t.Fatal(err)
	}
	addrs := gen.UniformAddrs(rand.New(rand.NewSource(14)), 256)
	dst := make([]uint32, len(addrs))
	f.LookupBatchInto(dst, addrs) // warm the scratch pool
	allocs := testing.AllocsPerRun(500, func() {
		f.LookupBatchInto(dst, addrs)
	})
	if allocs != 0 {
		t.Fatalf("batch lookup allocated %.2f times per batch, want 0", allocs)
	}
}

// TestRecycleUnderReaders is the -race stress for buffer recycling:
// batched readers continuously pin snapshots while a writer churns
// hard enough that every publish wants to reuse buffers the readers
// may still hold. The race detector checks the memory protocol;
// values are checked two ways — during churn every returned label
// must lie in the label alphabet the table and the updates draw from
// (a torn walk through a recycled buffer escapes it almost surely),
// and after the churn window the engine must be bit-identical to a
// flat DAG that received the same update sequence.
func TestRecycleUnderReaders(t *testing.T) {
	tab := testTable(t, 2000, 15)
	f, err := Build(tab, 11, 4)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := pdag.Build(tab, 11)
	if err != nil {
		t.Fatal(err)
	}
	addrs := gen.UniformAddrs(rand.New(rand.NewSource(16)), 1024)
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
					if label > fib.MaxLabel {
						select {
						case fail <- fmt.Sprintf("addr %08x: label %d outside alphabet", batch[j], label):
						default:
						}
						return
					}
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 3000; i++ {
		plen := 8 + rng.Intn(25)
		addr := rng.Uint32() & fib.Mask(plen)
		if i%3 == 0 {
			f.Delete(addr, plen)
			flat.Delete(addr, plen)
		} else {
			label := 1 + uint32(rng.Intn(100))
			if err := f.Set(addr, plen, label); err != nil {
				t.Fatal(err)
			}
			if err := flat.Set(addr, plen, label); err != nil {
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
			t.Fatalf("post-churn addr %08x: sharded %d, flat %d", a, got[i], want)
		}
	}
}

// TestSpareSkippedWhilePinned forces the conservative branch: a
// reader holds a pin on a retired snapshot across two publishes, so
// the writer must allocate fresh buffers instead of overwriting the
// pinned one, and the held snapshot must keep answering from its old
// table.
func TestSpareSkippedWhilePinned(t *testing.T) {
	f, err := Build(fib.MustParse("0.0.0.0/0 1", "10.0.0.0/8 2"), 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh := &f.shards[0]
	held := sh.pin()
	if got := held.blob.Lookup(0x0A000001); got != 2 {
		t.Fatalf("pinned snapshot: got %d, want 2", got)
	}
	// Publish twice: the second publish retires the snapshot the
	// reader holds and must see readers > 0 on it.
	if err := f.Set(0x0A000000, 8, 3); err != nil {
		t.Fatal(err)
	}
	if err := f.Set(0x0A000000, 8, 4); err != nil {
		t.Fatal(err)
	}
	if err := f.Set(0x0A000000, 8, 5); err != nil {
		t.Fatal(err)
	}
	if got := held.blob.Lookup(0x0A000001); got != 2 {
		t.Fatalf("pinned snapshot mutated under reader: got %d, want 2", got)
	}
	held.unpin()
	if got := f.Lookup(0x0A000001); got != 5 {
		t.Fatalf("current snapshot: got %d, want 5", got)
	}
}

// TestEquivalenceAcrossLambdas pins the batched read path against the
// flat DAG across the barriers an engine serves, [k, MaxLambda], and
// the constructor's refusal of the rest: λ < k has no root window per
// shard, λ > MaxLambda no merged root (26 would not even serialize).
func TestEquivalenceAcrossLambdas(t *testing.T) {
	tab := testTable(t, 3000, 21)
	rng := rand.New(rand.NewSource(22))
	addrs := gen.UniformAddrs(rng, 4096)
	for _, lambda := range []int{0, 2, 8, 11, 16, 26} {
		for _, shards := range []int{4, 16} {
			flat, err := pdag.Build(tab, lambda)
			if err != nil {
				t.Fatal(err)
			}
			f, err := Build(tab, lambda, shards)
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
					t.Fatalf("λ=%d shards=%d batch addr %08x: got %d, want %d", lambda, shards, a, dst[i], want)
				}
				if got := f.Lookup(a); got != want {
					t.Fatalf("λ=%d shards=%d scalar addr %08x: got %d, want %d", lambda, shards, a, got, want)
				}
			}
			// A couple of updates must keep every mode equivalent.
			for j := 0; j < 50; j++ {
				plen := 1 + rng.Intn(fib.W)
				addr := rng.Uint32() & fib.Mask(plen)
				label := 1 + uint32(rng.Intn(50))
				if err := flat.Set(addr, plen, label); err != nil {
					t.Fatal(err)
				}
				if err := f.Set(addr, plen, label); err != nil {
					t.Fatal(err)
				}
			}
			f.LookupBatchInto(dst, addrs[:512])
			for i, a := range addrs[:512] {
				if want := flat.Lookup(a); dst[i] != want {
					t.Fatalf("λ=%d shards=%d post-update addr %08x: got %d, want %d", lambda, shards, a, dst[i], want)
				}
			}
		}
	}
}

// TestReclaimAfterReaderDrains pins the merged view across several
// publishes (so retired views pile up against the pin), then releases
// it and checks the engine returns to zero-allocation republishing —
// the reclaim path must recover the spare's snapshot pins instead of
// leaking them.
func TestReclaimAfterReaderDrains(t *testing.T) {
	tab := testTable(t, 2000, 23)
	f, err := Build(tab, 11, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	us := gen.RandomUpdates(rng, tab, 1024)
	apply := func(u gen.Update) {
		if u.Withdraw {
			f.Delete(u.Addr, u.Len)
		} else if err := f.Set(u.Addr, u.Len, u.NextHop); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range us {
		apply(u)
	}
	held := f.pinCombined() // blocks reclamation of the view chain
	for _, u := range us[:64] {
		apply(u)
	}
	held.unpin()
	for _, u := range us[:64] { // drain: recover double buffers everywhere
		apply(u)
	}
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		apply(us[i&1023])
		i++
	})
	if allocs != 0 {
		t.Fatalf("republish after reader drain allocated %.2f times per update, want 0", allocs)
	}
}
