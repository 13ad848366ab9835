package shardfib

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fibcomp/internal/fib"
	"fibcomp/internal/gen"
	"fibcomp/internal/obs"
)

// opsFromUpdates converts a generated update sequence into engine ops.
func opsFromUpdates(us []gen.Update) []Op {
	ops := make([]Op, len(us))
	for i, u := range us {
		ops[i] = Op{Addr: u.Addr, Len: u.Len, Label: u.NextHop}
		if u.Withdraw {
			ops[i].Label = fib.NoLabel
		}
	}
	return ops
}

// TestApplyBatchMatchesSequential proves the batched write path is
// forwarding-equivalent to the per-update Set/Delete path: the same
// update stream pushed through both engines — in batches of varying
// size on one side, one at a time on the other — yields bit-identical
// lookups, across barriers and shard counts.
func TestApplyBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tab := testTable(t, 3000, 21)
	for _, cfg := range []struct {
		lambda, shards int
	}{
		{8, 4},
		{11, 16},
		{2, 4}, // short barrier: exercises replicated short prefixes
	} {
		batched, err := Build(tab, cfg.lambda, cfg.shards)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := Build(tab, cfg.lambda, cfg.shards)
		if err != nil {
			t.Fatal(err)
		}
		us := gen.BGPUpdates(rng, tab, 1500)
		// Mix in short prefixes so batches hit the multi-shard
		// covering path.
		for i := 0; i < 40; i++ {
			plen := rng.Intn(5)
			us = append(us, gen.Update{
				Addr:    rng.Uint32() & fib.Mask(plen),
				Len:     plen,
				NextHop: uint32(1 + rng.Intn(4)),
			})
		}
		ops := opsFromUpdates(us)
		for lo := 0; lo < len(ops); {
			hi := lo + 1 + rng.Intn(200)
			if hi > len(ops) {
				hi = len(ops)
			}
			if _, err := batched.ApplyBatch(ops[lo:hi]); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		for _, u := range us {
			if u.Withdraw {
				serial.Delete(u.Addr, u.Len)
			} else if err := serial.Set(u.Addr, u.Len, u.NextHop); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20000; i++ {
			a := rng.Uint32()
			if got, want := batched.Lookup(a), serial.Lookup(a); got != want {
				t.Fatalf("λ=%d shards=%d: ApplyBatch diverges at %08x: %d != %d",
					cfg.lambda, cfg.shards, a, got, want)
			}
		}
		// The batch read path must agree too.
		addrs := gen.UniformAddrs(rng, 512)
		got, want := batched.LookupBatch(addrs), serial.LookupBatch(addrs)
		for i := range addrs {
			if got[i] != want[i] {
				t.Fatalf("λ=%d shards=%d: batch lookup diverges at %08x",
					cfg.lambda, cfg.shards, addrs[i])
			}
		}
	}
}

// TestApplyBatchLastOpWins pins the in-order semantics: two ops on
// the same prefix inside one batch resolve to the later one.
func TestApplyBatchLastOpWins(t *testing.T) {
	tab := fib.MustParse("0.0.0.0/0 1")
	f, err := Build(tab, 11, 4)
	if err != nil {
		t.Fatal(err)
	}
	mutated, err := f.ApplyBatch([]Op{
		{Addr: 0x0A000000, Len: 8, Label: 2},
		{Addr: 0x0A000000, Len: 8, Label: 3},
		{Addr: 0x0B000000, Len: 8, Label: 4},
		{Addr: 0x0B000000, Len: 8, Label: fib.NoLabel}, // announce then withdraw
	})
	if err != nil {
		t.Fatal(err)
	}
	if mutated != 4 {
		t.Fatalf("mutated = %d, want 4 (every op changed state)", mutated)
	}
	if got := f.Lookup(0x0A000001); got != 3 {
		t.Fatalf("10.0.0.1 -> %d, want 3 (later op wins)", got)
	}
	if got := f.Lookup(0x0B000001); got != 1 {
		t.Fatalf("11.0.0.1 -> %d, want 1 (withdrawn, default route)", got)
	}
	// A short prefix is replicated into every covering shard but is
	// one logical route change: mutated counts it once.
	mutated, err = f.ApplyBatch([]Op{{Addr: 0, Len: 0, Label: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if mutated != 1 {
		t.Fatalf("mutated = %d for one default-route change, want 1", mutated)
	}
	// Re-announcing it identically is a no-op everywhere.
	mutated, err = f.ApplyBatch([]Op{{Addr: 0, Len: 0, Label: 7}})
	if err != nil || mutated != 0 {
		t.Fatalf("redundant re-announce: mutated = %d, err = %v, want 0, nil", mutated, err)
	}
}

// TestApplyBatchRejectsInvalid: an invalid op fails the whole batch
// before any shard is touched.
func TestApplyBatchRejectsInvalid(t *testing.T) {
	tab := fib.MustParse("0.0.0.0/0 1")
	f, err := Build(tab, 11, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Op{
		{Addr: 0, Len: 33, Label: 2},
		{Addr: 0, Len: -1, Label: 2},
		{Addr: 0, Len: 8, Label: fib.MaxLabel + 1},
	} {
		batch := []Op{{Addr: 0x0A000000, Len: 8, Label: 2}, bad}
		if _, err := f.ApplyBatch(batch); err == nil {
			t.Fatalf("ApplyBatch(%+v) should fail", bad)
		}
		if got := f.Lookup(0x0A000001); got != 1 {
			t.Fatalf("failed batch mutated the engine: 10.0.0.1 -> %d", got)
		}
	}
	if _, err := f.ApplyBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestApplyBatchZeroAllocs extends the steady-churn zero-allocation
// contract to the batched path, for both families: once the double
// buffers and the grouping scratch are warm, a recycled batch applies
// and republishes without heap allocations — with the publish-duration
// histogram and trace ring installed, so the contract covers the fully
// instrumented pipeline, not a telemetry-stripped one.
func TestApplyBatchZeroAllocs(t *testing.T) {
	tab, tab6 := testTable(t, 4000, 22), testTable6(t, 2000, 24)
	rng := rand.New(rand.NewSource(23))
	for _, fam := range []struct {
		name   string
		family uint8
		us     []gen.Update
		build  func(us []gen.Update) churned
	}{
		{"v4", 4, gen.RandomUpdates(rng, tab, 512), func(us []gen.Update) churned { return newChurned4(t, tab, 11, 16, us) }},
		{"v6", 6, gen.BGPUpdates6(rng, tab6, 512), func(us []gen.Update) churned { return newChurned6(t, tab6, 16, 16, us) }},
	} {
		t.Run(fam.name, func(t *testing.T) {
			// Two variants of the batch with different labels per prefix
			// (withdraws become announces in the twin), alternated so
			// every op is a genuine mutation — a recycled identical batch
			// would be squashed by the no-op detector and publish nothing.
			usA := withdrawn(fam.us)
			usB := append([]gen.Update(nil), usA...)
			for i := range usB {
				usB[i].NextHop = usB[i].NextHop%254 + 1
			}
			c := fam.build(usA)
			f := c.shell()
			ins := &Instruments{PublishSeconds: obs.NewHistogram(1e-9), Trace: obs.NewTraceRing(64)}
			f.SetInstruments(ins)
			// Warm every shard's double buffer, the serializer high-water
			// marks and the grouping scratch.
			for i := 0; i < 4; i++ {
				for _, us := range [][]gen.Update{usA, usB} {
					if _, err := c.apply(us); err != nil {
						t.Fatal(err)
					}
				}
			}
			i := 0
			_, _, before := f.Arena()
			allocs := testing.AllocsPerRun(50, func() {
				us := usA
				if i&1 == 1 {
					us = usB
				}
				i++
				if m, err := c.apply(us); err != nil || m == 0 {
					t.Fatalf("mutated %d, err %v", m, err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady batched republish allocated %.2f times per batch, want 0", allocs)
			}
			// The contract includes the batches that start a new arena
			// generation: the measured window must have crossed some, each
			// into the array recycled from the generation before last.
			if _, _, after := f.Arena(); after < before+3 {
				t.Fatalf("%d compactions in the measured window, want ≥ 3", after-before)
			}
			// The instrumentation recorded the batches it rode along with:
			// one histogram sample and one trace event per ApplyBatch, each
			// event carrying the batch's shape.
			if ins.PublishSeconds.Count() == 0 {
				t.Fatal("publish histogram recorded nothing")
			}
			evs := ins.Trace.Snapshot()
			if len(evs) == 0 {
				t.Fatal("trace ring recorded nothing")
			}
			ev := evs[0]
			if ev.KindS != "apply_batch" || ev.Family != fam.family {
				t.Fatalf("trace event misdescribes the batch: %+v", ev)
			}
			if ev.Ops != 512 || ev.Mutated == 0 || ev.Dirty == 0 || ev.Dirty > ev.Shards || ev.Bytes == 0 {
				t.Fatalf("trace event shape wrong: %+v", ev)
			}
		})
	}
}

// TestCompactionIsObservable: a batch that starts a new arena
// generation republishes every shard, and says so — its trace event
// carries Dirty == Shards == 2^k although the ops touched one shard —
// and the arena gauges on /metrics track each engine's own accounting,
// under its family's label.
func TestCompactionIsObservable(t *testing.T) {
	tab := testTable(t, 3000, 41)
	f, err := Build(tab, 11, 16)
	if err != nil {
		t.Fatal(err)
	}
	f6, err := Build6(testTable6(t, 500, 42), 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	ins := &Instruments{PublishSeconds: obs.NewHistogram(1e-9), Trace: obs.NewTraceRing(4)}
	f.SetInstruments(ins)
	reg := obs.NewRegistry()
	RegisterMetrics(reg, ins, f, f6)

	// Flap 64 host routes of one shard until the arena compacts.
	ops := make([]Op, 64)
	for batch := 0; ; batch++ {
		if batch > 2000 {
			t.Fatal("no compaction in 2000 batches")
		}
		for i := range ops {
			ops[i] = Op{Addr: 0x0A000000 | uint32(i)<<8, Len: 32, Label: uint32(1 + batch%5)}
		}
		_, _, before := f.Arena()
		if _, err := f.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
		evs := ins.Trace.Snapshot()
		ev := evs[0] // newest first
		if _, _, after := f.Arena(); after == before {
			if ev.Shards != 1 || ev.Dirty != 1 {
				t.Fatalf("batch %d touched one shard: %+v", batch, ev)
			}
			continue
		}
		if ev.Shards != 16 || ev.Dirty != 16 {
			t.Fatalf("compacting batch %d: Shards=%d Dirty=%d, want 16 and 16", batch, ev.Shards, ev.Dirty)
		}
		break
	}
	resident, live, n := f.Arena()
	if n != 1 || resident != live || resident != f.SizeBytes() {
		t.Fatalf("after the compaction: resident %d live %d SizeBytes %d compactions %d", resident, live, f.SizeBytes(), n)
	}
	resident6, live6, _ := f6.Arena()
	var sb strings.Builder
	reg.WriteProm(&sb)
	for _, want := range []string{
		fmt.Sprintf("shardfib_arena_resident_bytes{family=\"6\"} %d\n", resident6),
		fmt.Sprintf("shardfib_arena_live_bytes{family=\"6\"} %d\n", live6),
		"shardfib_compactions_total{family=\"6\"} 0\n",
		fmt.Sprintf("shardfib_arena_resident_bytes{family=\"4\"} %d\n", resident),
		fmt.Sprintf("shardfib_arena_live_bytes{family=\"4\"} %d\n", live),
		"shardfib_compactions_total{family=\"4\"} 1\n",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("/metrics lacks %q", want)
		}
	}
}
