package pdag_test

// Engine-level tests of the arena's two hazards — running out of node
// indices, and recycling an array a reader still walks. They live
// beside the arena because they drive it through its test hooks
// (export_test.go), and reach it the way production does: through
// shardfib engines and a vrftab registry.

import (
	"math/rand"
	"sync"
	"testing"

	"fibcomp/internal/fib"
	"fibcomp/internal/gen"
	"fibcomp/internal/pdag"
	"fibcomp/internal/shardfib"
	"fibcomp/internal/trie"
	"fibcomp/internal/vrftab"
)

func table(t *testing.T, n int, seed int64) *fib.Table {
	t.Helper()
	d, err := gen.SkewedDist(8, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := gen.SplitFIB(rand.New(rand.NewSource(seed)), n, d)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// churn applies a seeded flap storm over hot routes — a table that
// keeps its size while paths die and are rebuilt — in batches to every
// engine and to the control trie, calling check after each.
func churn(t *testing.T, tab *fib.Table, ctl *trie.Trie, batches, size, hot int, seed int64, check func(batch int), engines ...*shardfib.FIB) {
	t.Helper()
	storm := gen.FlapStorm(rand.New(rand.NewSource(seed)), tab, batches*size, hot)
	for b := 0; b < batches; b++ {
		us := storm[b*size : (b+1)*size]
		ops := make([]shardfib.Op, len(us))
		for i, u := range us {
			ops[i] = shardfib.Op{Addr: u.Addr, Len: u.Len, Label: u.NextHop}
			if u.Withdraw {
				ops[i].Label = fib.NoLabel
				ctl.Delete(u.Addr, u.Len)
			} else {
				ctl.Insert(u.Addr, u.Len, u.NextHop)
			}
		}
		for _, f := range engines {
			if _, err := f.ApplyBatch(ops); err != nil {
				t.Fatal(err)
			}
		}
		check(b)
	}
}

func agree(t *testing.T, what string, f *shardfib.FIB, ctl *trie.Trie, addrs, dst []uint32) {
	t.Helper()
	if !f.SnapshotsSerialized() {
		t.Fatalf("%s: a shard fell back to an unserialized snapshot", what)
	}
	f.LookupBatchInto(dst, addrs)
	for i, a := range addrs {
		if want := ctl.Lookup(a); dst[i] != want {
			t.Fatalf("%s: addr %08x -> %d, control trie says %d", what, a, dst[i], want)
		}
	}
}

// TestIndexExhaustionCompacts: an arena generation that runs out of
// node indices is replaced and every shard (every tenant) re-emitted,
// within the write that hit the ceiling — the engine never degrades to
// unserialized snapshots, and answers stay those of the control trie.
func TestIndexExhaustionCompacts(t *testing.T) {
	tab := table(t, 3000, 1)
	addrs := gen.UniformAddrs(rand.New(rand.NewSource(2)), 2048)
	dst := make([]uint32, len(addrs))

	t.Run("own arena", func(t *testing.T) {
		f, err := shardfib.Build(tab, 11, 16)
		if err != nil {
			t.Fatal(err)
		}
		_, live, _ := f.Arena() // a few KB of root windows included
		// Room for the table and a few batches' appends: the ceiling
		// comes long before the garbage rule would end a generation.
		defer pdag.SetArenaIndexLimit(uint32(live/8 + 2000))()
		ctl := trie.FromTable(tab)
		churn(t, tab, ctl, 60, 64, 64, 3, func(int) { agree(t, "own arena", f, ctl, addrs, dst) }, f)
		if _, _, n := f.Arena(); n < 3 {
			t.Fatalf("%d compactions: the ceiling was never reached", n)
		}
	})

	t.Run("registry", func(t *testing.T) {
		r := vrftab.New(11, 16, 16)
		var fed *shardfib.FIB
		for id := uint16(1); id <= 3; id++ {
			tn, err := r.Add(id, tab, nil)
			if err != nil {
				t.Fatal(err)
			}
			if id == 1 {
				fed = tn.V4
			}
		}
		v4, _ := r.FoldedInterior()
		defer pdag.SetArenaIndexLimit(uint32(v4 + 800))()
		ctl, idle := trie.FromTable(tab), trie.FromTable(tab)
		shared := r.SharedBytes()
		dropped := 0
		churn(t, tab, ctl, 150, 64, 64, 4, func(int) {
			agree(t, "fed tenant", fed, ctl, addrs, dst)
			for id := uint16(2); id <= 3; id++ {
				f, _, _ := r.Resolve(id)
				agree(t, "idle tenant", f, idle, addrs, dst)
			}
			now := r.SharedBytes()
			if now < shared {
				dropped++ // a new generation: the garbage went
			}
			shared = now
		}, fed)
		if dropped < 3 {
			t.Fatalf("the shared arenas shrank %d times: the ceiling was never reached", dropped)
		}
	})
}

// TestGenerationsUnderPinnedReaders is the -race stress for arena
// recycling. Readers hold a pinned view — and so every snapshot, and
// arena generation, it was cut from — across several compactions while
// the writer churns; each knows what its view must answer (the control
// trie's labels when it pinned) and checks every label on every pass.
// Recycled arrays are overwritten with a word that reads as a leaf with
// label 0xAD, which no table or update uses, so an array handed back
// while a view could still walk it fails the reader at once.
func TestGenerationsUnderPinnedReaders(t *testing.T) {
	defer pdag.SetRecyclePoison(0x800000AD)()
	tab := table(t, 3000, 5)
	f, err := shardfib.Build(tab, 11, 16)
	if err != nil {
		t.Fatal(err)
	}
	ctl := trie.FromTable(tab)
	addrs := gen.UniformAddrs(rand.New(rand.NewSource(6)), 1024)
	compactions := func() uint64 { _, _, n := f.Arena(); return n }

	type hold struct {
		view shardfib.View
		want []uint32
		stop chan struct{}
	}
	var wg sync.WaitGroup
	read := func(h *hold) {
		defer wg.Done()
		defer h.view.Release()
		dst := make([]uint32, len(addrs))
		for {
			h.view.LookupBatchInto(dst, addrs)
			for i := range dst {
				if dst[i] != h.want[i] {
					t.Errorf("pinned view: addr %08x -> %d, it was %d when pinned", addrs[i], dst[i], h.want[i])
					return
				}
			}
			select {
			case <-h.stop:
				return
			default:
			}
		}
	}
	pin := func() *hold {
		h := &hold{view: f.PinView(), want: make([]uint32, len(addrs)), stop: make(chan struct{})}
		for i, a := range addrs {
			h.want[i] = ctl.Lookup(a)
		}
		wg.Add(1)
		go read(h)
		return h
	}

	// Two readers at a time, each held across at least three
	// compactions, their holds staggered so that some view is always
	// pinning the generation being retired. Every batch also rewrites a
	// host route in each shard, so the snapshots a held view pins leave
	// the spare slots long before the view lets go: the engine must
	// remember having dropped them.
	holds := []*hold{pin()}
	pinnedAt := []uint64{compactions()}
	dst := make([]uint32, len(addrs))
	everyShard := make([]shardfib.Op, f.Shards())
	churn(t, tab, ctl, 400, 96, 1024, 7, func(b int) {
		for s := range everyShard {
			everyShard[s] = shardfib.Op{Addr: uint32(s)<<28 | 1, Len: 32, Label: uint32(1 + b%7)}
			ctl.Insert(everyShard[s].Addr, 32, everyShard[s].Label)
		}
		if _, err := f.ApplyBatch(everyShard); err != nil {
			t.Fatal(err)
		}
		if b%8 == 0 {
			agree(t, "live view", f, ctl, addrs, dst)
		}
		n := compactions()
		if len(holds) < 2 && n > pinnedAt[0] {
			holds, pinnedAt = append(holds, pin()), append(pinnedAt, n)
		}
		if n >= pinnedAt[0]+3 {
			close(holds[0].stop)
			holds, pinnedAt = holds[1:], pinnedAt[1:]
			if len(holds) == 0 {
				holds, pinnedAt = append(holds, pin()), append(pinnedAt, n)
			}
		}
	}, f)
	for _, h := range holds {
		close(h.stop)
	}
	wg.Wait()
	if n := compactions(); n < 9 {
		t.Fatalf("%d compactions in 400 batches: too few for three rounds of holds", n)
	}
}
