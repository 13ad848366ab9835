package obs

import "sync/atomic"

// TraceKind names the publish-pipeline stage a trace event records.
type TraceKind uint8

const (
	// TraceApplyBatch is one shardfib.ApplyBatch publish: the batched
	// write path the ribd flusher drives.
	TraceApplyBatch TraceKind = iota + 1
	// TraceReload is a whole-table hot reload (fibserve SIGHUP).
	TraceReload
)

func (k TraceKind) String() string {
	switch k {
	case TraceApplyBatch:
		return "apply_batch"
	case TraceReload:
		return "reload"
	default:
		return "unknown"
	}
}

// TraceEvent is one publish-pipeline record: which engine published,
// how much of it was dirty, how long serialization took and how many
// bytes the refreshed snapshots hold. The struct is pointer-free so
// recording one is a fixed-size copy — no allocation, nothing for the
// garbage collector to chase through the ring.
type TraceEvent struct {
	Seq     uint64    `json:"seq"`
	UnixNs  int64     `json:"unix_ns"`
	Kind    TraceKind `json:"-"`
	KindS   string    `json:"kind"`    // filled at snapshot time
	Family  uint8     `json:"family"`  // 4 or 6
	Shards  int32     `json:"shards"`  // shards the batch touched
	Dirty   int32     `json:"dirty"`   // shards actually republished (the dirty subset after no-op squashing)
	Ops     int32     `json:"ops"`     // ops in the batch
	Mutated int32     `json:"mutated"` // ops that really changed the engine
	Bytes   int64     `json:"bytes"`   // serialized bytes of the republished snapshots
	DurUs   int64     `json:"dur_us"`  // serialize + merged-view rebuild time
}

// traceSlot is one ring slot with a seqlock version stamp: the writer
// makes it odd, fills the event, makes it even again. A reader that
// sees an even, unchanged version across its copy got a torn-free
// event; anything else is a slot mid-write and is skipped.
type traceSlot struct {
	ver atomic.Uint64
	ev  TraceEvent
}

// TraceRing is a bounded lock-free ring of publish-pipeline events:
// writers reserve a slot with one atomic increment and overwrite the
// oldest entry, so the ring always holds the newest N events and a
// Record can neither block nor allocate. Intended write rates are
// publish-pipeline rates (one event per ApplyBatch flush — tens to
// hundreds per second), so two writers lapping each other onto the
// same slot mid-write is not a practical concern; the seqlock stamps
// make even that race detectable rather than torn.
type TraceRing struct {
	slots []traceSlot
	mask  uint64
	seq   atomic.Uint64
}

// NewTraceRing makes a ring holding n events, rounded up to a power
// of two (minimum 16).
func NewTraceRing(n int) *TraceRing {
	size := 16
	for size < n {
		size <<= 1
	}
	return &TraceRing{slots: make([]traceSlot, size), mask: uint64(size - 1)}
}

// Cap reports the ring's capacity.
func (r *TraceRing) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Record appends one event, overwriting the oldest once the ring is
// full. Zero-alloc, lock-free; safe on a nil ring (no-op), so
// instrumented hot paths need no nil guard of their own.
func (r *TraceRing) Record(ev TraceEvent) {
	if r == nil {
		return
	}
	i := r.seq.Add(1) - 1
	s := &r.slots[i&r.mask]
	s.ver.Add(1) // odd: write in progress
	ev.Seq = i
	s.ev = ev
	s.ver.Add(1) // even: stable
}

// Len reports how many events have ever been recorded (the ring
// retains min(Len, Cap) of them).
func (r *TraceRing) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Snapshot copies the retained events, newest first, skipping any
// slot caught mid-write. The returned events have KindS filled for
// JSON rendering. Allocates — this is the cold scrape path.
func (r *TraceRing) Snapshot() []TraceEvent {
	if r == nil {
		return nil
	}
	seq := r.seq.Load()
	n := seq
	if n > uint64(len(r.slots)) {
		n = uint64(len(r.slots))
	}
	out := make([]TraceEvent, 0, n)
	for k := uint64(0); k < n; k++ {
		i := seq - 1 - k // newest first
		s := &r.slots[i&r.mask]
		v0 := s.ver.Load()
		if v0&1 != 0 {
			continue
		}
		ev := s.ev
		if s.ver.Load() != v0 || ev.Seq != i {
			// Torn or already lapped by a newer write; skip.
			continue
		}
		ev.KindS = ev.Kind.String()
		out = append(out, ev)
	}
	return out
}
