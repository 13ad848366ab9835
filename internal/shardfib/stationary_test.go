package shardfib

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"fibcomp/internal/fib"
	"fibcomp/internal/gen"
	"fibcomp/internal/trie"
)

// TestStationaryUnderChurn is the v4 arm of the roadmap's stationarity
// property: serving bytes track the table, not the history, and a
// publish costs what it cost at the start. For seeded BGP-like and
// flap-storm sequences of 240 batches, after every batch:
//
//	(a) LookupBatch over a probe set is bit-identical to the offline
//	    replay of the same updates;
//	(b) SizeBytes() ≤ 1.5 × SizeBytes() of a fresh Build of the
//	    resulting table, plus one root window per shard — the arena's
//	    garbage rule;
//
// and over the whole sequence (c) the mean ApplyBatch time of the last
// third is within 1.5× of the first third's (not under -short or -race,
// whose overheads are not the engine's).
func TestStationaryUnderChurn(t *testing.T) {
	const batches, size = 240, 128
	tab := testTable(t, 3000, 31)
	orig := trie.FromTable(tab)
	feeds := map[string]func(*rand.Rand) []gen.Update{
		// BGPUpdates is announce-dominated, and a table that grows makes
		// later batches legitimately dearer (growth is not garbage). So
		// the feed is forty BGP-like batches, then the batches that undo
		// them, three times over: every third of the run is the same
		// work on the same table.
		"bgp": func(rng *rand.Rand) []gen.Update {
			us := gen.BGPUpdates(rng, tab, batches/6*size)
			for i := len(us) - 1; i >= 0; i-- {
				u := us[i]
				u.NextHop = orig.Get(u.Addr, u.Len)
				u.Withdraw = u.NextHop == fib.NoLabel
				us = append(us, u)
			}
			return append(append(us, us...), us...)
		},
		"flap": func(rng *rand.Rand) []gen.Update { return gen.FlapStorm(rng, tab, batches*size, 256) },
	}
	for _, lambda := range []int{8, 11} {
		for _, shards := range []int{4, 16} {
			for name, feed := range feeds {
				t.Run(fmt.Sprintf("v1/lambda=%d/shards=%d/%s", lambda, shards, name), func(t *testing.T) {
					stationary(t, tab, feed(rand.New(rand.NewSource(32))), lambda, shards, size)
				})
			}
		}
	}
}

func stationary(t *testing.T, tab *fib.Table, us []gen.Update, lambda, shards, size int) {
	f, err := Build(tab, lambda, shards)
	if err != nil {
		t.Fatal(err)
	}
	ctl := trie.FromTable(tab)
	probes := gen.UniformAddrs(rand.New(rand.NewSource(33)), 1024)
	for _, u := range us[:512] {
		probes = append(probes, u.Addr|^fib.Mask(u.Len)) // inside what the feed touches
	}
	got := make([]uint32, len(probes))
	windows := 4 << uint(lambda) // bytes of every shard's root window together
	for lo := 0; lo+size <= len(us); lo += size {
		batch := us[lo : lo+size]
		for _, u := range batch {
			if u.Withdraw {
				ctl.Delete(u.Addr, u.Len)
			} else {
				ctl.Insert(u.Addr, u.Len, u.NextHop)
			}
		}
		if _, err := f.ApplyBatch(opsFromUpdates(batch)); err != nil {
			t.Fatal(err)
		}
		f.LookupBatchInto(got, probes)
		for i, a := range probes {
			if want := ctl.Lookup(a); got[i] != want {
				t.Fatalf("batch %d: addr %08x -> %d, offline replay says %d", lo/size, a, got[i], want)
			}
		}
		fresh, err := Build(&fib.Table{Entries: ctl.Entries()}, lambda, shards)
		if err != nil {
			t.Fatal(err)
		}
		if have, bound := f.SizeBytes(), fresh.SizeBytes()*3/2+windows; have > bound {
			t.Fatalf("batch %d: serving %d B, a fresh build of the same table %d B: bound %d", lo/size, have, fresh.SizeBytes(), bound)
		}
	}
	if testing.Short() || raceEnabled {
		return
	}
	// (c), on an engine of its own with nothing else allocating: the
	// time the first and the last third of the batches take. A slowdown
	// the engine causes repeats; one the host causes does not, so the
	// best of three runs decides.
	ops := opsFromUpdates(us)
	var first, last time.Duration
	for try := 0; try < 3; try++ {
		if f, err = Build(tab, lambda, shards); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		third := len(ops) / size / 3 * size
		thirds := [3]time.Duration{}
		for lo := 0; lo < 3*third; lo += size {
			start := time.Now()
			if _, err := f.ApplyBatch(ops[lo : lo+size]); err != nil {
				t.Fatal(err)
			}
			thirds[lo/third] += time.Since(start)
		}
		if first, last = thirds[0], thirds[2]; last <= first*3/2 {
			return
		}
	}
	t.Fatalf("ApplyBatch slowed down: the first third of the batches took %v, the last %v", first, last)
}
