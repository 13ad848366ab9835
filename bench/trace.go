package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"fibcomp/internal/fib"
	"fibcomp/internal/gen"
	"fibcomp/internal/ip6"
	"fibcomp/internal/lookupd"
	"fibcomp/internal/obs"
	"fibcomp/internal/pdag"
	"fibcomp/internal/ribd"
	"fibcomp/internal/shardfib"
	"fibcomp/internal/trie"
	"fibcomp/internal/vrftab"
)

// The server's own defaults, which the benchmark never overrides.
const (
	lambda4 = 11
	lambda6 = 16
	shards  = 16
)

// span is one timed call into a package's public function (or a fixed
// count of them: Ops), with the span that caused it.
type span struct {
	Name   string `json:"name"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Ops    int64  `json:"ops"`
}

// tracer keeps spans in memory; they are aggregated, and written out on
// request, when the run ends. begin/end are safe from two goroutines
// (the in-process server's and the client's).
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	n     atomic.Int64
	spans []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, 1<<18)}
	t.on.Store(true)
	return t
}

func (t *tracer) begin(name string, parent uint32) uint32 {
	if !t.on.Load() {
		return 0
	}
	i := t.n.Add(1)
	if int(i) > len(t.spans) {
		return 0
	}
	t.spans[i-1] = span{Name: name, ID: uint32(i), Parent: parent, Start: int64(time.Since(t.epoch))}
	return uint32(i)
}

func (t *tracer) end(id uint32, ops int64) {
	if id != 0 {
		s := &t.spans[id-1]
		s.End, s.Ops = int64(time.Since(t.epoch)), ops
	}
}

// do times f as one span of ops operations.
func (t *tracer) do(name string, ops int, f func()) {
	id := t.begin(name, 0)
	f()
	t.end(id, int64(ops))
}

func (t *tracer) recorded() []span {
	n := int(t.n.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// agg is what the spans of one name measured: time per operation and
// self time (less what child spans cover), one value per span.
type agg struct {
	perOp []float64 // ns
	self  []float64 // ns
}

func (t *tracer) aggregate() map[string]*agg {
	spans := t.recorded()
	child := make([]int64, len(spans)+1) // time covered by children, by parent id
	for i := range spans {
		if s := &spans[i]; s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	m := map[string]*agg{}
	for i := range spans {
		s := &spans[i]
		a := m[s.Name]
		if a == nil {
			a = &agg{}
			m[s.Name] = a
		}
		if s.Ops > 0 {
			a.perOp = append(a.perOp, float64(s.End-s.Start)/float64(s.Ops))
		}
		a.self = append(a.self, float64(s.End-s.Start-child[s.ID]))
	}
	return m
}

// perOp is a span name's time per operation in ns: the median over its
// spans, which a collector pause or a descheduled moment inside one
// span does not move.
func perOp(m map[string]*agg, name string) float64 {
	if a := m[name]; a != nil {
		return median(a.perOp)
	}
	return 0
}

// traced fills the per-layer metrics: the scrape deltas of the untraced
// run just made, then the in-process replay of the same inputs.
func (r *run) traced(spansOut string) error {
	began := time.Now()
	r.res.Layers = map[string]value{}
	for _, m := range perLayer {
		r.res.Layers[m.name] = value{0, m.unit}
	}
	r.scrapeLayers()
	t := newTracer()
	var err error
	switch {
	case r.sp.v6:
		err = r.trace6(t)
	case r.sp.tenants > 0:
		err = r.traceVRF(t)
	default:
		err = r.trace4(t)
	}
	if err != nil {
		return err
	}
	r.res.Timing["trace_s"] = time.Since(began).Seconds()
	if spansOut != "" {
		b, _ := json.Marshal(t.recorded())
		return os.WriteFile(spansOut, b, 0o644)
	}
	return nil
}

func (r *run) layer(name string, v float64) {
	old, ok := r.res.Layers[name]
	if !ok {
		panic("bench: per-layer metric " + name + " is not in the table")
	}
	r.res.Layers[name] = value{v, old.Unit}
}

func ratio(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

// scrapeLayers derives the *scrape* metrics: deltas of the server's own
// /metrics series across the untraced run's window (scrape 0 to 1; the
// error counts to the end of the run), and what collect kept aside.
func (r *run) scrapeLayers() {
	a, b, end := r.scrape[0], r.scrape[1], r.scrape[2]
	d := func(a, b map[string]float64, name string) float64 { return sumPrefix(b, name) - sumPrefix(a, name) }
	r.layer("lookupd.burst_mean", ratio(d(a, b, "lookupd_burst_datagrams_sum"), d(a, b, "lookupd_burst_datagrams_count")))
	r.layer("lookupd.svc_us_per_burst", 1e6*ratio(d(a, b, "lookupd_service_seconds_sum"), d(a, b, "lookupd_service_seconds_count")))
	r.layer("lookupd.drops", d(a, end, "lookupd_drops_total"))
	r.layer("lookupd.errors", d(a, end, "lookupd_errors_total"))
	r.layer("shardfib.pin_retries", d(a, b, "shardfib_pin_retries_total"))
	r.layer("shardfib.publish_ms_mean", 1e3*ratio(d(a, b, "shardfib_publish_seconds_sum"), d(a, b, "shardfib_publish_seconds_count")))
	r.layer("shardfib.publishes_per_s", ratio(d(a, b, "shardfib_publish_seconds_count"), r.updating.Seconds()))
	r.layer("ribd.coalesce_ratio", ratio(d(a, b, "ribd_coalesced_total"), d(a, b, "ribd_received_total")))
	r.layer("ribd.mutated_ratio", ratio(d(a, b, "ribd_mutated_total"), d(a, b, "ribd_applied_total")))
	r.layer("ribd.flush_ms_mean", 1e3*ratio(d(a, b, "ribd_flush_seconds_sum"), d(a, b, "ribd_flush_seconds_count")))
	r.layer("ribd.staleness_ms_mean", 1e3*ratio(d(a, b, "ribd_staleness_seconds_sum"), d(a, b, "ribd_staleness_seconds_count")))
	r.layer("ribd.shed", d(a, end, "ribd_shed_total"))
	r.layer("ribd.rejected", d(a, end, "ribd_rejected_total"))
	r.layer("vrftab.shared_bytes", end["vrftab_shared_bytes"])
	r.layer("vrftab.unique_bytes", end["vrftab_unique_bytes"])
	r.layer("fib.bytes_after_feed", servingBytes(end))
	r.layer("gen.cpu_util", r.genBusy)
	r.layer("srv.cpu_util", r.srvBusy)
	r.layer("gen.late_ms_p99", percentile(r.late, 0.99))
	r.layer("host.speed", r.raw["speed"])
	for _, name := range []string{"setup_s", "throughput_mops", "srv_cpu_ns_per_op", "wire_rtt_p50_us", "conv_lag_p50_ms"} {
		r.layer("raw."+name, r.raw[name])
	}
	r.layer("wire.rtt_p90_us", r.rttP90)
	r.layer("wire.rtt_p99_us", r.rttP99)
	r.layer("feed.conv_lag_p90_ms", r.convP90)
	r.layer("feed.sync_lag_p50_ms", r.syncP50)
	r.layer("wire.unanswered", float64(r.look.unanswered))
	r.layer("feed.wrapped", float64(r.s.wrapped))
}

// Fixed operation counts of the in-process replay.
const (
	laneBatch  = 256 // addresses per walker call, whatever the workload's datagram
	lanePasses = 4
	applyN     = 12 // the first 4096-update bursts of the feed, through every rung of the write side
	setN       = 64
	pinLoops   = 100  // spans of 1000 PinView+Release pairs
	wireTrips  = 2000 // round trips per wire rung
)

// decodeKeys decodes the first 256K keys of the pool (a whole number of
// walker batches) from wire form.
func decodeKeys[K any](p *keyPool, decode func([]byte) K) []K {
	keys := make([]K, min(p.n&^(laneBatch-1), 1<<18))
	for i := range keys {
		keys[i] = decode(p.keys[p.asz*i:])
	}
	return keys
}

// batches times look over every 256-key batch, lanePasses times, one
// span per call.
func batches[K any](t *tracer, name string, keys []K, look func(dst []uint32, addrs []K)) {
	dst := make([]uint32, laneBatch)
	for p := 0; p < lanePasses; p++ {
		for i := 0; i+laneBatch <= len(keys); i += laneBatch {
			t.do(name, laneBatch, func() { look(dst, keys[i:i+laneBatch]) })
		}
	}
}

// burst is the i-th 4096-update burst of the generated feed.
func (in *inputs) burst(i int) []gen.Update {
	return in.feed.ups[i*burstUpdates : (i+1)*burstUpdates]
}

func ops4(us []gen.Update) []shardfib.Op {
	ops := make([]shardfib.Op, len(us))
	for i, u := range us {
		ops[i] = shardfib.Op{Addr: u.Addr, Len: u.Len, Label: u.NextHop}
		if u.Withdraw {
			ops[i].Label = fib.NoLabel
		}
	}
	return ops
}

func ops6(us []gen.Update) []shardfib.Op6 {
	ops := make([]shardfib.Op6, len(us))
	for i, u := range us {
		ops[i] = shardfib.Op6{Addr: u.Addr6, Len: u.Len, Label: u.NextHop}
		if u.Withdraw {
			ops[i].Label = ip6.NoLabel
		}
	}
	return ops
}

func readTable4(t *tracer, path string) (tab *fib.Table, err error) {
	t.do("fib.Read", 1, func() {
		var f *os.File
		if f, err = os.Open(path); err == nil {
			tab, err = fib.Read(f)
			f.Close()
		}
	})
	return tab, err
}

// trace4 replays an IPv4 workload's inputs through every layer on its
// path, bottom rung first.
func (r *run) trace4(t *tracer) error {
	in := r.in
	tab, err := readTable4(t, in.f4)
	if err != nil {
		return err
	}
	// The replay starts from the table as generated: label the pool from
	// it again, whatever the untraced run's feed did to the control.
	in.pool.relabel(control4{trie.FromTable(tab)})
	keys := decodeKeys(&in.pool, binary.BigEndian.Uint32)

	// pdag: the flat walker, then patch-only and serialize-only.
	d, err := pdag.Build(tab, lambda4)
	if err != nil {
		return err
	}
	blob, err := d.Serialize()
	if err != nil {
		return err
	}
	batches(t, "pdag.Blob.LookupBatchInto", keys, blob.LookupBatchInto)
	for i := 0; i < applyN; i++ {
		us := in.burst(i)
		t.do("pdag.DAG.Set", len(us), func() {
			for _, u := range us {
				if u.Withdraw {
					d.Delete(u.Addr, u.Len)
				} else {
					d.Set(u.Addr, u.Len, u.NextHop)
				}
			}
		})
		t.do("pdag.DAG.SerializeInto", 1, func() { blob, err = d.SerializeInto(blob) })
		if err != nil {
			return err
		}
	}

	// shardfib, read side.
	var f *shardfib.FIB
	t.do("shardfib.Build", 1, func() { f, err = shardfib.Build(tab, lambda4, shards) })
	if err != nil {
		return err
	}
	v := f.PinView()
	batches(t, "shardfib.View.LookupBatchInto", keys, v.LookupBatchInto)
	v.Release()
	batches(t, "shardfib.FIB.LookupBatchInto", keys, f.LookupBatchInto)
	for i := 0; i < pinLoops; i++ {
		t.do("shardfib.FIB.PinView", 1000, func() {
			for j := 0; j < 1000; j++ {
				f.PinView().Release()
			}
		})
	}

	// lookupd over the engine, and over a stub.
	if err := r.traceWire(t, &spanEngine[uint32]{f: f, t: t}, nil, lookupd.Options{}); err != nil {
		return err
	}

	// shardfib, write side; then ribd over the same engine, on bursts
	// it has not seen.
	for i := 0; i < applyN; i++ {
		ops := ops4(in.burst(i))
		t.do("shardfib.FIB.ApplyBatch", 1, func() { _, err = f.ApplyBatch(ops) })
		if err != nil {
			return err
		}
	}
	for _, u := range in.burst(applyN)[:setN] {
		if !u.Withdraw {
			t.do("shardfib.FIB.Set", 1, func() { err = f.Set(u.Addr, u.Len, u.NextHop) })
		}
	}
	if err != nil {
		return err
	}
	fresh := func() *ribd.Plane {
		var e *shardfib.FIB
		if e, err = shardfib.Build(tab, lambda4, shards); err != nil {
			return nil
		}
		return ribd.New(e, ribd.Options{})
	}
	direct, socketed := fresh(), fresh()
	if err != nil {
		return err
	}
	if err := r.tracePlane(t, direct, socketed); err != nil {
		return err
	}
	r.traceSmall(t)

	m := t.aggregate()
	r.layer("fib.read_ms", perOp(m, "fib.Read")/1e6)
	r.layer("shardfib.build_ms", perOp(m, "shardfib.Build")/1e6)
	r.layer("pdag.lanes_ns_per_lookup", perOp(m, "pdag.Blob.LookupBatchInto"))
	r.layer("pdag.set_ns", perOp(m, "pdag.DAG.Set"))
	r.layer("pdag.serialize_us", perOp(m, "pdag.DAG.SerializeInto")/1e3)
	r.layer("shardfib.view_ns_per_lookup", perOp(m, "shardfib.View.LookupBatchInto"))
	r.layer("shardfib.batch_ns_per_lookup", perOp(m, "shardfib.FIB.LookupBatchInto"))
	r.layer("shardfib.pin_ns", perOp(m, "shardfib.FIB.PinView"))
	r.layer("shardfib.apply_batch_us_per_burst", perOp(m, "shardfib.FIB.ApplyBatch")/1e3)
	r.layer("shardfib.set_us", perOp(m, "shardfib.FIB.Set")/1e3)
	r.commonLayers(m)
	r.ladders(m, "shardfib.FIB.LookupBatchInto", "shardfib.View.LookupBatchInto", "pdag.Blob.LookupBatchInto",
		"shardfib.FIB.ApplyBatch", "pdag.DAG.Set", "pdag.DAG.SerializeInto")
	return nil
}

// trace6 is trace4 for the dual-stack workload: the ip6 copy of every
// layer, plus the IPv4 read and build the server's set-up also pays.
func (r *run) trace6(t *tracer) error {
	in := r.in
	tab4, err := readTable4(t, in.f4)
	if err != nil {
		return err
	}
	var f4 *shardfib.FIB
	t.do("shardfib.Build", 1, func() { f4, err = shardfib.Build(tab4, lambda4, shards) })
	if err != nil {
		return err
	}
	file, err := os.Open(in.f6)
	if err != nil {
		return err
	}
	tab, err := ip6.Read(file)
	file.Close()
	if err != nil {
		return err
	}
	in.pool.relabel(control6{ip6.FromTable(tab)})
	keys := decodeKeys(&in.pool, wireAddr6)

	d, err := ip6.Build(tab, lambda6)
	if err != nil {
		return err
	}
	blob, err := d.Serialize()
	if err != nil {
		return err
	}
	batches(t, "ip6.Blob.LookupBatchInto", keys, blob.LookupBatchInto)
	for i := 0; i < applyN; i++ {
		us := in.burst(i)
		t.do("ip6.DAG.Set", len(us), func() {
			for _, u := range us {
				if u.Withdraw {
					d.Delete(u.Addr6, u.Len)
				} else {
					d.Set(u.Addr6, u.Len, u.NextHop)
				}
			}
		})
		t.do("ip6.DAG.SerializeInto", 1, func() { blob, err = d.SerializeInto(blob) })
		if err != nil {
			return err
		}
	}

	var f *shardfib.FIB6
	t.do("shardfib.Build6", 1, func() { f, err = shardfib.Build6(tab, lambda6, shards) })
	if err != nil {
		return err
	}
	batches(t, "shardfib.FIB6.LookupBatchInto", keys, f.LookupBatchInto)
	if err := r.traceWire(t, f4, &spanEngine[ip6.Addr]{f: f, t: t}, lookupd.Options{}); err != nil {
		return err
	}
	for i := 0; i < applyN; i++ {
		ops := ops6(in.burst(i))
		t.do("shardfib.FIB6.ApplyBatch", 1, func() { _, err = f.ApplyBatch(ops) })
		if err != nil {
			return err
		}
	}
	fresh := func() *ribd.Plane {
		var e *shardfib.FIB6
		if e, err = shardfib.Build6(tab, lambda6, shards); err != nil {
			return nil
		}
		return ribd.NewDual(f4, e, ribd.Options{})
	}
	direct, socketed := fresh(), fresh()
	if err != nil {
		return err
	}
	if err := r.tracePlane(t, direct, socketed); err != nil {
		return err
	}
	r.traceSmall(t)

	m := t.aggregate()
	r.layer("fib.read_ms", perOp(m, "fib.Read")/1e6)
	r.layer("shardfib.build_ms", perOp(m, "shardfib.Build")/1e6)
	r.layer("shardfib.build6_ms", perOp(m, "shardfib.Build6")/1e6)
	r.layer("ip6.lanes_ns_per_lookup", perOp(m, "ip6.Blob.LookupBatchInto"))
	r.layer("ip6.set_ns", perOp(m, "ip6.DAG.Set"))
	r.layer("ip6.serialize_us", perOp(m, "ip6.DAG.SerializeInto")/1e3)
	r.layer("shardfib.batch6_ns_per_lookup", perOp(m, "shardfib.FIB6.LookupBatchInto"))
	r.layer("shardfib.apply_batch6_us_per_burst", perOp(m, "shardfib.FIB6.ApplyBatch")/1e3)
	r.commonLayers(m)
	r.ladders(m, "shardfib.FIB6.LookupBatchInto", "", "ip6.Blob.LookupBatchInto",
		"shardfib.FIB6.ApplyBatch", "ip6.DAG.Set", "ip6.DAG.SerializeInto")
	return nil
}

// traceVRF replays the tenant workload: the registry's build and resolve
// costs, then the IPv4 layers under one tenant's engine.
func (r *run) traceVRF(t *tracer) error {
	in := r.in
	reg := vrftab.New(lambda4, lambda6, shards)
	for i := range in.tenants {
		tn := &in.tenants[i]
		file, err := os.Open(tn.file)
		if err != nil {
			return err
		}
		tab, err := fib.Read(file)
		file.Close()
		if err != nil {
			return err
		}
		t.do("vrftab.Registry.Add", 1, func() { _, err = reg.Add(tn.id, tab, nil) })
		if err != nil {
			return err
		}
	}
	ids := make([]uint16, len(in.tenants))
	for i := range ids {
		ids[i] = in.tenants[i].id
	}
	for i := 0; i < pinLoops; i++ {
		t.do("vrftab.Registry.Resolve", 1000, func() {
			for j := 0; j < 1000; j++ {
				reg.Resolve(ids[j%len(ids)])
			}
		})
	}
	// What the VRF dispatch arm does per datagram, tenants rotating.
	keys := decodeKeys(&in.pool, binary.BigEndian.Uint32)
	n := 0
	batches(t, "vrftab.resolve+pin+lookup", keys, func(dst, addrs []uint32) {
		f, _, _ := reg.Resolve(ids[n%len(ids)])
		n++
		v := f.PinView()
		v.LookupBatchInto(dst, addrs)
		v.Release()
	})
	if err := r.traceWire(t, nil, nil, lookupd.Options{VRFs: reg}); err != nil {
		return err
	}
	// The write side, through the fed tenant's own engine.
	f, _, _ := reg.Resolve(in.feedVRF)
	var err error
	for i := 0; i < applyN; i++ {
		ops := ops4(in.burst(i))
		t.do("shardfib.FIB.ApplyBatch", 1, func() { _, err = f.ApplyBatch(ops) })
		if err != nil {
			return err
		}
	}
	// Two more tenants hold the same base, as fresh as the first was.
	fB, _, _ := reg.Resolve(ids[1])
	fC, _, _ := reg.Resolve(ids[2])
	if err := r.tracePlane(t, ribd.New(fB, ribd.Options{}), ribd.New(fC, ribd.Options{})); err != nil {
		return err
	}
	r.traceSmall(t)

	m := t.aggregate()
	r.layer("vrftab.add_ms_per_tenant", perOp(m, "vrftab.Registry.Add")/1e6)
	r.layer("vrftab.resolve_ns", perOp(m, "vrftab.Registry.Resolve"))
	r.layer("vrftab.resolve_batch_ns_per_lookup", perOp(m, "vrftab.resolve+pin+lookup"))
	r.layer("shardfib.apply_batch_us_per_burst", perOp(m, "shardfib.FIB.ApplyBatch")/1e3)
	r.commonLayers(m)
	// No wrapper can sit under the VRF arm (it pins the tenant's engine
	// itself), so lookupd's own share is the round trip less the
	// resolve+pin+lookup rung at the datagram's size.
	r.layer("lookupd.self_us", perOp(m, "wire.roundtrip")/1e3-perOp(m, "vrftab.resolve+pin+lookup")*float64(in.sp.batch)/1e3)
	r.ladders(m, "vrftab.resolve+pin+lookup", "", "", "shardfib.FIB.ApplyBatch", "", "")
	return nil
}

// commonLayers sets the metrics every family derives from the same span
// names.
func (r *run) commonLayers(m map[string]*agg) {
	r.layer("lookupd.stub_rtt_us_b256", perOp(m, "wire.roundtrip.stub256")/1e3)
	r.layer("lookupd.stub_rtt_us_b1", perOp(m, "wire.roundtrip.stub1")/1e3)
	if a := m["wire.roundtrip"]; a != nil {
		r.layer("lookupd.self_us", median(a.self)/1e3)
	}
	r.layer("ribd.enqueue_sync_us_per_burst", perOp(m, "ribd.Plane.EnqueueBatch+Sync")/1e3)
	r.layer("ribd.session_us_per_burst", perOp(m, "ribd.session")/1e3)
	r.layer("gen.parse_ns_per_line", perOp(m, "gen.ParseUpdate"))
	r.layer("obs.observe_ns", perOp(m, "obs.Histogram.Observe"))
}

// engine is what a lookupd server asks of an engine of either family.
type engine[K any] interface {
	Lookup(K) uint32
	LookupBatchInto(dst []uint32, addrs []K)
}

// stubEngine answers label 1 to everything: a lookupd server over it
// costs sockets and framing only.
type stubEngine[K any] struct{}

func (stubEngine[K]) Lookup(K) uint32 { return 1 }
func (stubEngine[K]) LookupBatchInto(dst []uint32, addrs []K) {
	for i := range addrs {
		dst[i] = 1
	}
}

// spanEngine is the Lookuper the in-process server calls: it records the
// engine's share of a round trip as a child of the client's span.
type spanEngine[K any] struct {
	f   engine[K]
	t   *tracer
	cur atomic.Uint32 // the round trip in flight
}

func (e *spanEngine[K]) Lookup(a K) uint32 { return e.f.Lookup(a) }
func (e *spanEngine[K]) LookupBatchInto(dst []uint32, addrs []K) {
	id := e.t.begin("engine.lookup_batch", e.cur.Load())
	e.f.LookupBatchInto(dst, addrs)
	e.t.end(id, int64(len(addrs)))
}

// traceWire measures round trips through in-process lookupd servers:
// over stub engines (sockets and framing only) at 256 and 1 legacy
// addresses and at the workload's own datagram, then over the real
// engine at the workload's datagram, traced and untraced (their ratio
// is the tracing overhead).
func (r *run) traceWire(t *tracer, l4 lookupd.Lookuper, l6 lookupd.Lookuper6, o lookupd.Options) error {
	in := r.in
	stub, err := lookupd.ListenDual("127.0.0.1:0", stubEngine[uint32]{}, stubEngine[ip6.Addr]{})
	if err != nil {
		return err
	}
	defer stub.Close()
	for _, b := range []int{256, 1} {
		name := fmt.Sprintf("wire.roundtrip.stub%d", b)
		if _, err := r.roundTrips(t, stub.Addr().String(), name, b, false, false, nil); err != nil {
			return err
		}
	}
	// A stub cannot stand in for a tenant's engine (the VRF arm wants
	// the concrete type), so that workload's stub rung is the legacy one.
	if len(in.tenants) == 0 {
		if _, err := r.roundTrips(t, stub.Addr().String(), "wire.roundtrip.stub", in.sp.batch, true, false, nil); err != nil {
			return err
		}
	}
	if l4 == nil {
		l4 = stubEngine[uint32]{} // the default table is not on this workload's path
	}
	srv, err := lookupd.ListenOptions("127.0.0.1:0", l4, l6, o)
	if err != nil {
		return err
	}
	defer srv.Close()
	var cur *atomic.Uint32
	if e, ok := l4.(*spanEngine[uint32]); ok {
		cur = &e.cur
	}
	if e, ok := l6.(*spanEngine[ip6.Addr]); ok {
		cur = &e.cur
	}
	var on, off []float64
	for i := 0; i < 3; i++ {
		t.on.Store(false)
		d, err := r.roundTrips(t, srv.Addr().String(), "wire.roundtrip", in.sp.batch, true, true, cur)
		if err != nil {
			return err
		}
		off = append(off, d.Seconds())
		t.on.Store(true)
		if d, err = r.roundTrips(t, srv.Addr().String(), "wire.roundtrip", in.sp.batch, true, true, cur); err != nil {
			return err
		}
		on = append(on, d.Seconds())
	}
	r.layer("trace.overhead_ratio", median(on)/median(off))
	return nil
}

// roundTrips runs a window-1 closed loop of batch-address datagrams and
// returns how long the loop took. shaped uses the workload's framing
// and pool keys, otherwise the datagrams are legacy IPv4 zeros; verify
// compares every label with the pool's.
func (r *run) roundTrips(t *tracer, addr, name string, batch int, shaped, verify bool, cur *atomic.Uint32) (time.Duration, error) {
	in := r.in
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	asz, hdr := 4, 0
	var keys, exp []byte
	if shaped {
		asz, keys = in.asz, in.pool.keys
		switch {
		case len(in.tenants) > 0:
			hdr = 3
		case in.sp.v6:
			hdr = 1
		}
	}
	if verify {
		exp = in.pool.exp
	}
	req := make([]byte, hdr+asz*batch)
	reply := make([]byte, maxDatagram)
	off := 0
	start := time.Now()
	for i := 0; i < wireTrips; i++ {
		switch hdr {
		case 1:
			req[0] = afInet6
		case 3:
			req[0] = vrfInet
			binary.BigEndian.PutUint16(req[1:], in.tenants[i%len(in.tenants)].id)
		}
		if keys != nil {
			if off+batch > in.pool.n {
				off = 0
			}
			copy(req[hdr:], keys[asz*off:asz*(off+batch)])
		}
		id := t.begin(name, 0)
		if cur != nil {
			cur.Store(id)
		}
		if _, err := conn.Write(req); err != nil {
			return 0, err
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(reply)
		t.end(id, 1)
		if err != nil {
			return 0, fmt.Errorf("in-process %s: %v", name, err)
		}
		if n != hdr+4*batch || exp != nil && !bytes.Equal(reply[hdr:n], exp[4*off:4*(off+batch)]) {
			return 0, fmt.Errorf("in-process %s: wrong reply", name)
		}
		off += batch
	}
	return time.Since(start), nil
}

// tracePlane drives the update plane without and with its socket, each
// over an engine as fresh as the one ApplyBatch was timed on and with
// the same bursts: EnqueueBatch+Sync on the parsed updates through
// direct, then their text through an in-process ribd.Serve session
// over socketed.
func (r *run) tracePlane(t *tracer, direct, socketed *ribd.Plane) error {
	in := r.in
	defer direct.Close()
	defer socketed.Close()
	srv, err := ribd.Serve(socketed, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	s := &session{in: in, conn: conn, br: bufio.NewReader(conn)}
	// Burst by burst through the one and then the other, so that a slow
	// stretch of the host falls on both rungs.
	for i := 0; i < applyN; i++ {
		us := in.burst(i)
		t.do("ribd.Plane.EnqueueBatch+Sync", 1, func() {
			direct.EnqueueBatch(us)
			direct.Sync()
		})
		text := append([]byte(nil), in.feed.lines(i*burstUpdates, (i+1)*burstUpdates)...)
		t.do("ribd.session", 1, func() { err = s.sync(text) })
		if err != nil {
			return err
		}
	}
	return nil
}

// traceSmall times the per-line parser and the telemetry primitive.
func (r *run) traceSmall(t *tracer) {
	in := r.in
	for i := 0; i < applyN; i++ {
		lines := strings.Split(strings.TrimSpace(string(in.feed.lines(i*burstUpdates, (i+1)*burstUpdates))), "\n")
		t.do("gen.ParseUpdate", len(lines), func() {
			for _, l := range lines {
				gen.ParseUpdate(l)
			}
		})
	}
	h := obs.NewHistogram(1e-9)
	for i := 0; i < pinLoops; i++ {
		t.do("obs.Histogram.Observe", 1000, func() {
			for j := 0; j < 1000; j++ {
				h.Observe(uint64(j) * 977)
			}
		})
	}
}

// ladders renders the two budgets: each rung, its difference from the
// rung above where the two nest, and how far the separately measured
// parts are from the span that contains them.
func (r *run) ladders(m map[string]*agg, fibRung, viewRung, laneRung, applyRung, setRung, serRung string) {
	b := float64(r.in.sp.batch)
	top := perOp(m, "wire.roundtrip") / b
	stub := perOp(m, "wire.roundtrip.stub") / b
	if stub == 0 {
		stub = perOp(m, "wire.roundtrip.stub256") / 256
	}
	eng := perOp(m, "engine.lookup_batch")
	if eng == 0 {
		eng = perOp(m, fibRung) // no wrapper under this arm: the rung measured on its own
	}
	add := func(format string, args ...any) { r.res.Ladders = append(r.res.Ladders, fmt.Sprintf(format, args...)) }
	add("read ladder, %s, in-process, ns per lookup at %d addresses per datagram:", r.sp.name, r.in.sp.batch)
	add("  %-50s %10.1f", "wire.roundtrip (sockets + framing + engine)", top)
	add("  %-50s %10.1f", "  stub wire: lookupd over a constant engine", stub)
	add("  %-50s %10.1f", "  + engine under the server", eng)
	add("  %-50s %10.1f  = %.1f%% of the top span", "  top - stub - engine (unaccounted)", top-stub-eng, 100*(top-stub-eng)/top)
	prev := 0.0
	for _, g := range []struct{ label, name string }{{"", fibRung}, {"pinned view: ", viewRung}, {"bare lanes: ", laneRung}} {
		if g.name == "" {
			continue
		}
		v := perOp(m, g.name)
		if prev == 0 {
			add("  %-50s %10.1f  (at %d addresses per call)", "  "+g.label+g.name, v, laneBatch)
		} else {
			add("  %-50s %10.1f  (%+.1f from the rung above)", "  "+g.label+g.name, v, v-prev)
		}
		prev = v
	}

	sess := perOp(m, "ribd.session") / 1e3
	parse := perOp(m, "gen.ParseUpdate") * burstUpdates / 1e3
	plane := perOp(m, "ribd.Plane.EnqueueBatch+Sync") / 1e3
	apply := perOp(m, applyRung) / 1e3
	add("write ladder, %s, in-process, us per %d-update burst (the same %d bursts on every rung):", r.sp.name, burstUpdates, applyN)
	add("  %-50s %10.1f", "ribd.session (socket + lines + parse + plane)", sess)
	add("  %-50s %10.1f", "  gen.ParseUpdate x4096", parse)
	add("  %-50s %10.1f", "  ribd.Plane.EnqueueBatch+Sync", plane)
	add("  %-50s %10.1f  = %.1f%% of the top span", "  top - parse - plane (unaccounted)", sess-parse-plane, 100*(sess-parse-plane)/sess)
	add("  %-50s %10.1f  (%+.1f: the plane's coalescing and pacing above it)", "    "+applyRung, apply, plane-apply)
	if setRung != "" {
		// The flat DAG patches every update; ApplyBatch first drops the
		// ones that change nothing, so these two do not sum to it.
		add("  %-50s %10.1f", "      patch only: "+setRung+" x4096, flat DAG", perOp(m, setRung)*burstUpdates/1e3)
		add("  %-50s %10.1f", "      serialize only: "+serRung+", flat DAG", perOp(m, serRung)/1e3)
	}
}
