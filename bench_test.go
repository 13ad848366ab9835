// Benchmarks regenerating the measured quantity behind every table
// and figure of the paper's evaluation (§5). Instances are scaled-down
// versions of the paper's FIBs so the suite runs in minutes; run
// cmd/fibbench -scale 1 for paper-scale tables. Custom metrics:
//
//	bytes        structure size
//	cycles/op    CPU cycles at the paper's 2.5 GHz clock
//	fpga-cycles  simulated FPGA cycles per lookup (Table 2, HW column)
package fibcomp_test

import (
	"math/rand"
	"sync"
	"testing"

	"fibcomp/internal/fib"
	"fibcomp/internal/gen"
	"fibcomp/internal/hwsim"
	"fibcomp/internal/ip6"
	"fibcomp/internal/lctrie"
	"fibcomp/internal/mdag"
	"fibcomp/internal/ortc"
	"fibcomp/internal/patricia"
	"fibcomp/internal/pdag"
	"fibcomp/internal/trie"
	"fibcomp/internal/xbw"
)

// benchN is the benchmark FIB size: 1/8 of taz.
const benchN = 51000

var (
	benchOnce  sync.Once
	benchTable *fib.Table
	benchKeys  []uint32
	benchTrace []uint32
)

func benchFIB(b *testing.B) (*fib.Table, []uint32, []uint32) {
	b.Helper()
	benchOnce.Do(func() {
		p, err := gen.ProfileByName("taz")
		if err != nil {
			panic(err)
		}
		p.N = benchN
		rng := rand.New(rand.NewSource(1))
		benchTable, err = p.Generate(rng)
		if err != nil {
			panic(err)
		}
		benchKeys = gen.UniformAddrs(rng, 1<<14)
		benchTrace = gen.ZipfTrace(rng, 1<<14, 1<<12, 1.2)
	})
	return benchTable, benchKeys, benchTrace
}

// ---- Table 1: compression (build cost and compressed sizes) ----

func BenchmarkTable1_XBWBuild(b *testing.B) {
	t, _, _ := benchFIB(b)
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := xbw.New(t)
		if err != nil {
			b.Fatal(err)
		}
		size = x.SizeBytes()
	}
	b.ReportMetric(float64(size), "bytes")
	b.ReportMetric(float64(size)*8/float64(t.N()), "bits/prefix")
}

func BenchmarkTable1_PDAGBuild(b *testing.B) {
	t, _, _ := benchFIB(b)
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := pdag.Build(t, 11)
		if err != nil {
			b.Fatal(err)
		}
		size = d.ModelBytes()
	}
	b.ReportMetric(float64(size), "bytes")
	b.ReportMetric(float64(size)*8/float64(t.N()), "bits/prefix")
}

func BenchmarkTable1_Entropy(b *testing.B) {
	// The measurement pipeline itself: leaf-push + metrics.
	t, _, _ := benchFIB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := trie.FromTable(t).LeafPush().LeafStats()
		if s.Leaves == 0 {
			b.Fatal("no leaves")
		}
	}
}

// ---- Table 2: lookup engines ----

func BenchmarkTable2_LookupXBW(b *testing.B) {
	t, keys, _ := benchFIB(b)
	x, err := xbw.New(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += x.Lookup(keys[i&(len(keys)-1)])
	}
	_ = sink
	b.ReportMetric(float64(x.SizeBytes()), "bytes")
}

func BenchmarkTable2_LookupPDAGPointer(b *testing.B) {
	t, keys, _ := benchFIB(b)
	d, err := pdag.Build(t, 11)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += d.Lookup(keys[i&(len(keys)-1)])
	}
	_ = sink
}

func BenchmarkTable2_LookupPDAGSerialized(b *testing.B) {
	t, keys, _ := benchFIB(b)
	d, err := pdag.Build(t, 11)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := d.Serialize()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += blob.Lookup(keys[i&(len(keys)-1)])
	}
	_ = sink
	b.ReportMetric(float64(blob.SizeBytes()), "bytes")
}

func BenchmarkTable2_LookupPDAGTraceKeys(b *testing.B) {
	t, _, traceKeys := benchFIB(b)
	d, err := pdag.Build(t, 11)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := d.Serialize()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += blob.Lookup(traceKeys[i&(len(traceKeys)-1)])
	}
	_ = sink
}

func BenchmarkTable2_LookupFibTrie(b *testing.B) {
	t, keys, _ := benchFIB(b)
	lc, err := lctrie.Build(t, 0.5, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += lc.Lookup(keys[i&(len(keys)-1)])
	}
	_ = sink
	b.ReportMetric(float64(lc.ModelBytes()), "bytes")
}

func BenchmarkTable2_FPGA(b *testing.B) {
	t, keys, _ := benchFIB(b)
	d, err := pdag.Build(t, 11)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := d.Serialize()
	if err != nil {
		b.Fatal(err)
	}
	eng, err := hwsim.New(blob, 64<<20, 50e6)
	if err != nil {
		b.Fatal(err)
	}
	var avg float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		avg = eng.Run(keys).AvgCycles
	}
	b.ReportMetric(avg, "fpga-cycles/lookup")
}

// ---- Fig 5: update cost vs leaf-push barrier ----

func benchUpdates(b *testing.B, lambda int, bgp bool) {
	t, _, _ := benchFIB(b)
	rng := rand.New(rand.NewSource(2))
	var us []gen.Update
	if bgp {
		us = gen.BGPUpdates(rng, t, 4096)
	} else {
		us = gen.RandomUpdates(rng, t, 4096)
	}
	d, err := pdag.Build(t, lambda)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := us[i&4095]
		if u.Withdraw {
			d.Delete(u.Addr, u.Len)
		} else if err := d.Set(u.Addr, u.Len, u.NextHop); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(d.ModelBytes()), "bytes")
}

func BenchmarkFig5_UpdateRandom_Lambda0(b *testing.B)  { benchUpdates(b, 0, false) }
func BenchmarkFig5_UpdateRandom_Lambda11(b *testing.B) { benchUpdates(b, 11, false) }
func BenchmarkFig5_UpdateRandom_Lambda32(b *testing.B) { benchUpdates(b, 32, false) }
func BenchmarkFig5_UpdateBGP_Lambda0(b *testing.B)     { benchUpdates(b, 0, true) }
func BenchmarkFig5_UpdateBGP_Lambda11(b *testing.B)    { benchUpdates(b, 11, true) }
func BenchmarkFig5_UpdateBGP_Lambda32(b *testing.B)    { benchUpdates(b, 32, true) }

// ---- Fig 6: Bernoulli-relabeled FIB compression ----

func BenchmarkFig6_CompressBernoulli(b *testing.B) {
	t, _, _ := benchFIB(b)
	rng := rand.New(rand.NewSource(3))
	relabeled := gen.Relabel(rng, t, gen.Bernoulli(0.95))
	var nu float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := pdag.Build(relabeled, 11)
		if err != nil {
			b.Fatal(err)
		}
		s := trie.FromTable(relabeled).LeafPush().LeafStats()
		nu = float64(d.ModelBytes()) * 8 / s.Entropy
	}
	b.ReportMetric(nu, "nu")
}

// ---- Fig 7: string-model folding ----

func BenchmarkFig7_StringFold(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	s := gen.BernoulliString(rng, 1<<15, 0.95)
	var bytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := pdag.BuildString(s, 10)
		if err != nil {
			b.Fatal(err)
		}
		bytes = d.ModelBytes()
	}
	b.ReportMetric(float64(bytes), "bytes")
	b.ReportMetric(float64(bytes)*8/float64(len(s)), "bits/sym")
}

// ---- supporting: ORTC aggregation appears in §6 as the classic
// baseline; benchmark its cost on the same instance ----

func BenchmarkBaseline_ORTC(b *testing.B) {
	t, _, _ := benchFIB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := ortc.Compress(t)
		if out.N() == 0 {
			b.Fatal("empty aggregation")
		}
	}
}

// ---- Ablations: the §7 multibit extension and the S_I encoding ----

func benchMultibit(b *testing.B, stride int) {
	t, keys, _ := benchFIB(b)
	d, err := mdag.Build(t, stride)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += d.Lookup(keys[i&(len(keys)-1)])
	}
	_ = sink
	b.ReportMetric(float64(d.ModelBytes()), "bytes")
}

func BenchmarkAblation_MultibitStride2(b *testing.B) { benchMultibit(b, 2) }
func BenchmarkAblation_MultibitStride4(b *testing.B) { benchMultibit(b, 4) }
func BenchmarkAblation_MultibitStride8(b *testing.B) { benchMultibit(b, 8) }

func BenchmarkAblation_XBWPlainSI(b *testing.B) {
	t, keys, _ := benchFIB(b)
	lp := trie.FromTable(t).LeafPush()
	x, err := xbw.FromTrieOptions(lp, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += x.Lookup(keys[i&(len(keys)-1)])
	}
	_ = sink
	b.ReportMetric(float64(x.SizeBytes()), "bytes")
}

// ---- IPv6 extension (§7): folding and lookup over 128-bit keys ----

var (
	bench6Once sync.Once
	bench6Tab  *ip6.Table
	bench6Keys []ip6.Addr
)

func bench6(b *testing.B) (*ip6.Table, []ip6.Addr) {
	b.Helper()
	bench6Once.Do(func() {
		rng := rand.New(rand.NewSource(5))
		var err error
		bench6Tab, err = ip6.SplitFIB(rng, 50000, []float64{0.8, 0.12, 0.05, 0.03})
		if err != nil {
			panic(err)
		}
		bench6Keys = ip6.RandomAddrs(rng, 1<<14)
	})
	return bench6Tab, bench6Keys
}

func BenchmarkIPv6_PDAGBuild(b *testing.B) {
	t, _ := bench6(b)
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := ip6.Build(t, 16)
		if err != nil {
			b.Fatal(err)
		}
		size = d.ModelBytes()
	}
	b.ReportMetric(float64(size), "bytes")
}

func BenchmarkIPv6_PDAGLookup(b *testing.B) {
	t, keys := bench6(b)
	d, err := ip6.Build(t, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += d.Lookup(keys[i&(len(keys)-1)])
	}
	_ = sink
}

func BenchmarkIPv6_XBWLookup(b *testing.B) {
	t, keys := bench6(b)
	x, err := ip6.NewXBW(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += x.Lookup(keys[i&(len(keys)-1)])
	}
	_ = sink
	b.ReportMetric(float64(x.SizeBits())/8, "bytes")
}

func BenchmarkBaseline_PatriciaLookup(b *testing.B) {
	t, keys, _ := benchFIB(b)
	p := patricia.Build(t)
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += p.Lookup(keys[i&(len(keys)-1)])
	}
	_ = sink
	b.ReportMetric(float64(p.ModelBytes()), "bytes")
}
