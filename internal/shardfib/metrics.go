package shardfib

import (
	"fmt"

	"fibcomp/internal/obs"
)

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
func (e *engine) SetInstruments(ins *Instruments) { e.ins.Store(ins) }

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

// RegisterMetrics registers the publish-pipeline metrics on r: the
// publish-duration histogram held by ins, the package-wide
// pin/validate retry counters, and the size, arena and compaction
// series of each configured engine under its family label (f and f6
// may each be nil).
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
	var engines []*engine
	if f != nil {
		engines = append(engines, &f.engine)
	}
	if f6 != nil {
		engines = append(engines, &f6.engine)
	}
	// Metric by metric, so that a scrape lists each one's families
	// together; the functions read atomics emit stores, at scrape time.
	for _, m := range []struct {
		name, help string
		register   func(name, labels, help string, fn func() uint64)
		read       func(e *engine) uint64
	}{
		{"shardfib_blob_bytes", "Resident bytes of the serving form: published root windows, and the arena of an engine that owns one.",
			r.MustGaugeFunc, func(e *engine) uint64 { return uint64(e.SizeBytes()) }},
		{"shardfib_arena_resident_bytes", "The engine's own arena and root windows, garbage included (0 without one).",
			r.MustGaugeFunc, func(e *engine) uint64 { resident, _, _ := e.Arena(); return uint64(resident) }},
		{"shardfib_arena_live_bytes", "What a fresh build of the current table would serve from; a compaction keeps resident within 1.5 × this.",
			r.MustGaugeFunc, func(e *engine) uint64 { _, live, _ := e.Arena(); return uint64(live) }},
		{"shardfib_compactions_total", "Arena generations started because garbage passed the bound or node indices ran out.",
			r.MustCounterFunc, func(e *engine) uint64 { _, _, n := e.Arena(); return n }},
	} {
		for _, e := range engines {
			m.register(m.name, fmt.Sprintf(`family="%d"`, e.family), m.help, func() uint64 { return m.read(e) })
		}
	}
}
