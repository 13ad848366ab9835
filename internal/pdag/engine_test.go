package pdag_test

// Engine-level tests of the arena's hazards — running out of node
// indices, with or without a way out, and recycling an array a reader
// still walks. They live beside the arena because they drive it through
// its test hooks (export_test.go), and reach it the way production
// does: through shardfib engines of both families and a vrftab
// registry.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fibcomp/internal/fib"
	"fibcomp/internal/gen"
	"fibcomp/internal/ip6"
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

// family is one address family behind the operations the arena's
// hazards are stated over, so that each is stated once for both: an
// engine over a seeded 3000-route table, the offline trie its answers
// must equal, a probe set, and a flap storm over a thousand hot routes —
// a table that keeps its size while paths die and are rebuilt.
type family struct {
	name   string
	arena  func() (resident, live int, compactions uint64)
	build  func() error          // one more engine of the same table
	storm  func(batch int) error // apply the storm's batch-th slice (and a host route rewritten in every shard) to engine and trie
	reload func() error          // reload the engine with the original table; the trie is not touched
	want   func() []uint32       // the trie's answers to the probes, now
	got    func(scalar bool) []uint32
	pin    func() (answers func() []uint32, release func())
}

const stormBatch = 96

func family4(t *testing.T, seed int64) *family {
	tab := table(t, 3000, seed)
	f, err := shardfib.Build(tab, 11, 16)
	if err != nil {
		t.Fatal(err)
	}
	ctl := trie.FromTable(tab)
	addrs := gen.UniformAddrs(rand.New(rand.NewSource(seed+1)), 1024)
	storm := gen.FlapStorm(rand.New(rand.NewSource(seed+2)), tab, 400*stormBatch, 1024)
	return &family{
		name:  "v4",
		arena: f.Arena,
		build: func() error { _, err := shardfib.Build(tab, 11, 16); return err },
		storm: func(b int) error {
			ops := make([]shardfib.Op, 0, stormBatch+16)
			for _, u := range storm[b*stormBatch : (b+1)*stormBatch] {
				ops = append(ops, shardfib.Op{Addr: u.Addr, Len: u.Len, Label: u.NextHop})
			}
			for s := 0; s < 16; s++ {
				ops = append(ops, shardfib.Op{Addr: uint32(s)<<28 | 1, Len: 32, Label: uint32(1 + b%7)})
			}
			for _, op := range ops {
				if op.Label == fib.NoLabel {
					ctl.Delete(op.Addr, op.Len)
				} else {
					ctl.Insert(op.Addr, op.Len, op.Label)
				}
			}
			_, err := f.ApplyBatch(ops)
			return err
		},
		reload: func() error { return f.Reload(tab) },
		want: func() []uint32 {
			out := make([]uint32, len(addrs))
			for i, a := range addrs {
				out[i] = ctl.Lookup(a)
			}
			return out
		},
		got: func(scalar bool) []uint32 {
			out := make([]uint32, len(addrs))
			if !scalar {
				f.LookupBatchInto(out, addrs)
				return out
			}
			for i, a := range addrs {
				out[i] = f.Lookup(a)
			}
			return out
		},
		pin: func() (func() []uint32, func()) {
			v, out := f.PinView(), make([]uint32, len(addrs))
			return func() []uint32 { v.LookupBatchInto(out, addrs); return out }, v.Release
		},
	}
}

func family6(t *testing.T, seed int64) *family {
	rng := rand.New(rand.NewSource(seed))
	tab, err := ip6.SplitFIB(rng, 3000, []float64{0.5, 0.3, 0.15, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	f, err := shardfib.Build6(tab, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	ctl := ip6.FromTable(tab)
	addrs := append(ip6.DeepAddrs(rng, tab, 512), ip6.RandomAddrs(rng, 512)...)
	// The storm: 1024 long prefixes with nothing in common below the
	// barrier come up under some label and go down again, a random
	// tenth of them each batch. (The table's own routes will not do:
	// SplitFIB's bottom out a few bits below λ = 16, and folded paths
	// that short never fill a generation.)
	hot := make([]ip6.Entry, 1024)
	for i := range hot {
		plen := 48 + rng.Intn(17)
		hot[i] = ip6.Entry{Addr: ip6.Canonical(ip6.Addr{Hi: 0x2000000000000000 | rng.Uint64()>>3}, plen), Len: plen}
	}
	up := make([]bool, len(hot))
	return &family{
		name:  "v6",
		arena: f.Arena,
		build: func() error { _, err := shardfib.Build6(tab, 16, 16); return err },
		storm: func(b int) error {
			ops := make([]shardfib.Op6, 0, stormBatch+16)
			for i := 0; i < stormBatch; i++ {
				j := rng.Intn(len(hot))
				op := shardfib.Op6{Addr: hot[j].Addr, Len: hot[j].Len}
				if up[j] = !up[j]; up[j] {
					op.Label = uint32(1 + rng.Intn(8))
				}
				ops = append(ops, op)
			}
			for s := uint64(0); s < 16; s++ {
				ops = append(ops, shardfib.Op6{Addr: ip6.Addr{Hi: s << 60, Lo: 1}, Len: 128, Label: uint32(1 + b%7)})
			}
			for _, op := range ops {
				if op.Label == ip6.NoLabel {
					ctl.Delete(op.Addr, op.Len)
				} else {
					ctl.Insert(op.Addr, op.Len, op.Label)
				}
			}
			_, err := f.ApplyBatch(ops)
			return err
		},
		reload: func() error { return f.Reload(tab) },
		want: func() []uint32 {
			out := make([]uint32, len(addrs))
			for i, a := range addrs {
				out[i] = ctl.Lookup(a)
			}
			return out
		},
		got: func(scalar bool) []uint32 {
			out := make([]uint32, len(addrs))
			if !scalar {
				f.LookupBatchInto(out, addrs)
				return out
			}
			for i, a := range addrs {
				out[i] = f.Lookup(a)
			}
			return out
		},
		pin: func() (func() []uint32, func()) {
			v, out := f.PinView(), make([]uint32, len(addrs))
			return func() []uint32 { v.LookupBatchInto(out, addrs); return out }, v.Release
		},
	}
}

// bothFamilies runs a hazard once per address family.
func bothFamilies(t *testing.T, seed int64, hazard func(t *testing.T, fam *family)) {
	for _, mk := range []func(*testing.T, int64) *family{family4, family6} {
		fam := mk(t, seed)
		t.Run(fam.name, func(t *testing.T) { hazard(t, fam) })
	}
}

// differ names the first probe two answer sets disagree on.
func differ(got, want []uint32) string {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("probe %d -> %d, want %d", i, got[i], want[i])
		}
	}
	return ""
}

// churn applies a seeded flap storm over hot routes in batches to the
// engine and to the control trie, calling check after each.
func churn(t *testing.T, tab *fib.Table, ctl *trie.Trie, batches, size, hot int, seed int64, check func(batch int), f *shardfib.FIB) {
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
		if _, err := f.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
		check(b)
	}
}

func agree(t *testing.T, what string, f *shardfib.FIB, ctl *trie.Trie, addrs, dst []uint32) {
	t.Helper()
	f.LookupBatchInto(dst, addrs)
	for i, a := range addrs {
		if want := ctl.Lookup(a); dst[i] != want {
			t.Fatalf("%s: addr %08x -> %d, control trie says %d", what, a, dst[i], want)
		}
	}
}

// TestIndexExhaustionCompacts: an arena generation that runs out of
// node indices is replaced and every shard (every tenant) re-emitted,
// within the write that hit the ceiling, and answers stay those of the
// control trie.
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
	bothFamilies(t, 5, func(t *testing.T, fam *family) {
		compactions := func() uint64 { _, _, n := fam.arena(); return n }
		type hold struct{ stop chan struct{} }
		var wg sync.WaitGroup
		pin := func() *hold {
			h := &hold{stop: make(chan struct{})}
			want := fam.want()
			answers, release := fam.pin()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer release()
				for {
					if d := differ(answers(), want); d != "" {
						t.Errorf("pinned view: %s when it was pinned", d)
						return
					}
					select {
					case <-h.stop:
						return
					default:
					}
				}
			}()
			return h
		}

		// Two readers at a time, each held across at least three
		// compactions, their holds staggered so that some view is always
		// pinning the generation being retired. Every batch also rewrites
		// a host route in each shard, so the snapshots a held view pins
		// leave the spare slots long before the view lets go: the engine
		// must remember having dropped them.
		holds := []*hold{pin()}
		pinnedAt := []uint64{compactions()}
		for b := 0; b < 400; b++ {
			if err := fam.storm(b); err != nil {
				t.Fatal(err)
			}
			if b%8 == 0 {
				if d := differ(fam.got(false), fam.want()); d != "" {
					t.Fatalf("live view after batch %d: %s", b, d)
				}
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
		}
		for _, h := range holds {
			close(h.stop)
		}
		wg.Wait()
		if n := compactions(); n < 9 {
			t.Fatalf("%d compactions in 400 batches: too few for three rounds of holds", n)
		}
	})
}

// TestGenerationTooSmall is the one failure an engine has left: the
// table does not fit a generation's node indices even compacted. Every
// write then returns an error and readers — merged view and per-shard
// snapshots alike — keep the answers of the last batch that was
// published, from an array that is retired by then (each failed write
// compacted) but must never be recycled: it is poisoned if it is. When
// indices are to be had again, the next write publishes everything the
// failed ones patched.
func TestGenerationTooSmall(t *testing.T) {
	defer pdag.SetRecyclePoison(0x800000AD)()
	bothFamilies(t, 9, func(t *testing.T, fam *family) {
		for b := 0; b < 40; b++ { // some history: generations retired and recycled
			if err := fam.storm(b); err != nil {
				t.Fatal(err)
			}
		}
		served := fam.want()
		restore := pdag.SetArenaIndexLimit(64) // the tables fold to thousands of nodes
		defer restore()
		check := func(after string) {
			t.Helper()
			for _, scalar := range []bool{false, true} {
				if d := differ(fam.got(scalar), served); d != "" {
					t.Fatalf("after %s (scalar=%v): %s before it", after, scalar, d)
				}
			}
		}
		for b := 40; b < 50; b++ {
			if err := fam.storm(b); err == nil {
				t.Fatalf("batch %d was published into a generation it cannot fit", b)
			}
			check("a failed batch")
		}
		if err := fam.reload(); err == nil {
			t.Fatal("Reload succeeded")
		}
		check("a failed reload")
		if err := fam.build(); err == nil {
			t.Fatal("Build succeeded")
		}
		restore()
		if err := fam.storm(50); err != nil {
			t.Fatal(err)
		}
		served = fam.want()
		check("the batch that fit again")
	})
}
