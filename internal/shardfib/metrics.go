package shardfib

import "fibcomp/internal/obs"

// Instruments is the optional telemetry hook a FIB publishes through:
// a publish-duration histogram and a bounded trace ring that records
// one event per ApplyBatch (and per Reload). Both fields may be nil —
// the obs write primitives are nil-safe — and the hook itself is
// installed through an atomic pointer, so an uninstrumented engine
// pays one pointer load per batch and the instrumented write path
// stays on the zero-allocation contract (a TraceEvent is a
// pointer-free value copy, an Observe two atomic adds).
//
// One Instruments value is typically shared by the v4 and v6 engines
// of a dual-stack server: the trace events carry the family, and the
// publish histogram deliberately aggregates both (it measures the
// write path the ribd flusher drives, which batches both families in
// one flush).
type Instruments struct {
	// PublishSeconds records the publish span of one ApplyBatch or
	// Reload — shard serialization plus merged-view rebuild — in raw
	// nanoseconds (register with scale 1e-9).
	PublishSeconds *obs.Histogram
	// Trace receives one event per ApplyBatch/Reload.
	Trace *obs.TraceRing
}

// SetInstruments installs (or replaces, or removes with nil) the
// engine's telemetry hook. Safe concurrently with ApplyBatch; a batch
// in flight keeps the hook it loaded.
func (f *FIB) SetInstruments(ins *Instruments) { f.ins.Store(ins) }

// SetInstruments is the IPv6 twin.
func (f *FIB6) SetInstruments(ins *Instruments) { f.ins.Store(ins) }

// Pin/validate retry counters, package-wide across engines of both
// families. The retry branch of the snapshot and merged-view pin
// loops only runs when a reader raced a concurrent retirement —
// effectively never under healthy churn — so counting there costs the
// fast path nothing while making the race's actual frequency
// observable instead of folklore.
var (
	snapPinRetries obs.Cell
	viewPinRetries obs.Cell
)

// SnapshotPinRetries reports how many times a reader lost the
// pin/validate race against a shard snapshot retirement and retried.
func SnapshotPinRetries() uint64 { return snapPinRetries.Load() }

// ViewPinRetries is SnapshotPinRetries for the merged serving views.
func ViewPinRetries() uint64 { return viewPinRetries.Load() }

// snapshotBytes is the per-shard term of SizeBytes: the snapshot's
// root window (its node words are the space's arena, counted once).
// Callers pin the snapshot or hold the shard's mu (it cannot be
// recycled mid-read).
func snapshotBytes(s *snapshot) int {
	if s.blob != nil {
		return 4 * len(s.blob.Root)
	}
	return s.dag.ModelBytes()
}

// snapshot6Bytes is the IPv6 twin of snapshotBytes: the shard's
// private blob.
func snapshot6Bytes(s *snapshot6) int {
	if s.blob != nil {
		return s.blob.SizeBytes()
	}
	return s.dag.ModelBytes()
}

// RegisterMetrics registers the publish-pipeline metrics on r: the
// publish-duration histogram held by ins, the package-wide
// pin/validate retry counters, and a blob-size gauge per configured
// engine (f and f6 may each be nil; the gauges read SizeBytes at
// scrape time, costing the write path nothing).
func RegisterMetrics(r *obs.Registry, ins *Instruments, f *FIB, f6 *FIB6) {
	if ins != nil && ins.PublishSeconds != nil {
		r.MustHistogram("shardfib_publish_seconds", "",
			"ApplyBatch/Reload publish span: shard serialization plus merged-view rebuild.",
			ins.PublishSeconds)
	}
	r.MustCounterFunc("shardfib_pin_retries_total", `kind="snapshot"`,
		"Reader pin/validate retries against a concurrently retired snapshot or view.",
		SnapshotPinRetries)
	r.MustCounterFunc("shardfib_pin_retries_total", `kind="view"`, "", ViewPinRetries)
	if f != nil {
		r.MustGaugeFunc("shardfib_blob_bytes", `family="4"`,
			"Resident bytes of the serving form: published snapshots, and the arena of an engine that owns one.",
			func() uint64 { return uint64(f.SizeBytes()) })
		r.MustGaugeFunc("shardfib_arena_resident_bytes", "",
			"IPv4 engine's own arena and root windows, garbage included (0 without one).",
			func() uint64 { resident, _, _ := f.Arena(); return uint64(resident) })
		r.MustGaugeFunc("shardfib_arena_live_bytes", "",
			"What a fresh build of the current IPv4 table would serve from; a compaction keeps resident within 1.5 × this.",
			func() uint64 { _, live, _ := f.Arena(); return uint64(live) })
		r.MustCounterFunc("shardfib_compactions_total", "",
			"Arena generations started because garbage passed the bound or node indices ran out.",
			func() uint64 { _, _, n := f.Arena(); return n })
	}
	if f6 != nil {
		r.MustGaugeFunc("shardfib_blob_bytes", `family="6"`, "",
			func() uint64 { return uint64(f6.SizeBytes()) })
	}
}
