// Package ribd is the live route-update plane: the control-plane
// subsystem that turns the sharded serving engine into a router that
// converges while it serves. It has three layers:
//
//   - a session layer (session.go) accepting update feeds from
//     concurrent TCP peers and from files, speaking the gen feed text
//     format ("announce 10.1.0.0/16 3" / "withdraw 10.1.0.0/16"),
//     with per-peer sequence tracking and a sync barrier verb;
//   - a coalescing queue: every accepted update lands in the pending
//     map, keyed by family and prefix, squashing redundant
//     churn — repeated announces of a prefix, announce-then-withdraw
//     — so a burst costs one DAG mutation per distinct prefix no
//     matter how hot the feed;
//   - a flush-on-drain republisher: as soon as the flusher has drained
//     the ingest queue and something is pending, it publishes the
//     pending prefixes through shardfib.ApplyBatch (one merged-view
//     rebuild per flush). Updates that arrive during a flush become
//     the next batch, so batch size follows load with no rule for
//     it. The only wait is the operator's Options.MinInterval
//     (default 0), capped at Options.MaxStaleness, so an accepted
//     update is visible to lookups within MinInterval plus one flush
//     duration — inside the staleness bound the plane reports.
//
// One goroutine (the flusher) owns the pending map, so the hot
// ingest path is a channel send and the steady-state flush cycle
// reuses every buffer it needs: with the engine's double-buffered
// snapshots this keeps continuous churn at zero allocations per
// applied update.
package ribd

import (
	"sync"
	"sync/atomic"
	"time"

	"fibcomp/internal/fib"
	"fibcomp/internal/gen"
	"fibcomp/internal/ip6"
	"fibcomp/internal/obs"
	"fibcomp/internal/shardfib"
	"fibcomp/internal/trie"
)

// Options tunes the plane. The zero value is ready to use.
type Options struct {
	// MaxStaleness is the staleness bound the plane reports to peers
	// (the sync reply's staleness_bound) and the cap on MinInterval:
	// an accepted update waits at most MaxStaleness plus one flush
	// duration before lookups see it. Default DefaultMaxStaleness.
	MaxStaleness time.Duration
	// MinInterval is the least gap between one flush's end and the
	// next flush's start, for operators who want to cap the publish
	// rate; it is capped at MaxStaleness. Default 0: the plane
	// publishes as soon as it has drained its queue.
	MinInterval time.Duration
	// MaxPending flushes early once this many distinct prefixes are
	// pending, bounding the coalescing map's footprint. The bound
	// holds except during a graceful-restart sweep, which pends every
	// route the lost peer owned in one pass; the next decision then
	// flushes the sweep in one batch. Default DefaultMaxPending.
	MaxPending int
	// Queue is the ingest channel depth; sessions enqueueing into a
	// full queue block (backpressure on the feed socket). Default
	// DefaultQueue.
	Queue int
	// RestartTime is the graceful-restart window: how long a named
	// peer's routes are retained (still answering lookups) after its
	// session is lost before they are mark-and-swept. Zero means
	// DefaultRestartTime; negative sweeps immediately on session
	// loss (no grace).
	RestartTime time.Duration
	// PeerBudget bounds one named peer's backlog — updates its
	// sessions have enqueued that the flusher has not yet published.
	// A session whose peer exceeds it is shed (reset with an error
	// reply, counted in Stats.Shed) so one flapping peer cannot grow
	// the plane's memory without limit. Default DefaultPeerBudget.
	PeerBudget int
}

// Defaults for the zero Options value.
const (
	DefaultMaxStaleness = 50 * time.Millisecond
	DefaultMaxPending   = 1 << 15
	DefaultQueue        = 4096
	DefaultRestartTime  = 30 * time.Second
	DefaultPeerBudget   = 1 << 18
)

func (o Options) withDefaults() Options {
	if o.MaxStaleness <= 0 {
		o.MaxStaleness = DefaultMaxStaleness
	}
	o.MinInterval = min(o.MinInterval, o.MaxStaleness)
	if o.MaxPending <= 0 {
		o.MaxPending = DefaultMaxPending
	}
	if o.Queue <= 0 {
		o.Queue = DefaultQueue
	}
	if o.RestartTime == 0 {
		o.RestartTime = DefaultRestartTime
	}
	if o.PeerBudget <= 0 {
		o.PeerBudget = DefaultPeerBudget
	}
	return o
}

// Stats is a point-in-time snapshot of the plane's counters. The
// conservation law Received + Swept = Coalesced + Applied +
// (still pending) holds at every barrier: sweep-generated withdrawals
// enter the pending map like any received update and are published by
// the same flushes.
type Stats struct {
	Received    uint64 `json:"received"`     // updates accepted into the plane
	Coalesced   uint64 `json:"coalesced"`    // updates squashed into an already-pending prefix
	Applied     uint64 `json:"applied"`      // coalesced updates handed to the engine
	Mutated     uint64 `json:"mutated"`      // applied updates that actually changed the engine (the rest were no-op re-announcements it squashed)
	Rejected    uint64 `json:"rejected"`     // updates dropped for invalid prefix/label
	Flushes     uint64 `json:"flushes"`      // batch publishes
	ApplyErrors uint64 `json:"apply_errors"` // engine errors during a flush (should stay 0)
	Swept       uint64 `json:"swept"`        // stale-route withdrawals generated by graceful-restart sweeps
	Shed        uint64 `json:"shed"`         // sessions reset for exceeding their peer's backlog budget
}

// item is one unit on the ingest channel: a single update, a burst of
// updates (batch non-nil; pool non-nil when the buffer returns to
// sessionPool after absorption), a sync barrier (done non-nil), or a
// peer-lifecycle control event (ctl non-nil). src, when non-nil,
// attributes the updates (or the barrier) to a named peer for route
// ownership and backlog accounting.
type item struct {
	u     gen.Update
	batch []gen.Update
	pool  *[]gen.Update
	done  chan struct{}
	src   *peerState
	ctl   *ctl
}

// sessionBatch is how many parsed updates a session accumulates
// before handing them to the flusher in one queue operation. Bursty
// feeds would otherwise wake the flusher once per update — tens of
// thousands of scheduler round trips per second that starve the
// lookup threads they share cores with.
const sessionBatch = 128

var sessionPool = sync.Pool{New: func() any {
	s := make([]gen.Update, 0, sessionBatch)
	return &s
}}

// route identifies one prefix of either family in the coalescing and
// ownership maps: the canonical key, the prefix length and the family.
type route struct {
	k    trie.Key
	plen uint8
	v6   bool
}

// Plane is the live route-update plane over one sharded engine per
// address family — always an IPv4 engine, optionally an IPv6 one
// (NewDual). Create with New or NewDual, feed with Enqueue / Feed / a
// session Server, stop with Close (which drains and applies
// everything already accepted). Both families flow through one
// flusher: a flush hands each family's coalesced batch to its own
// engine's ApplyBatch, so the staleness bound and the stats
// conservation law hold across the dual-stack stream as a whole.
type Plane struct {
	eng  *shardfib.FIB
	eng6 *shardfib.FIB6
	opts Options

	in   chan item
	quit chan struct{}
	done chan struct{}
	stop sync.Once

	// Flusher-owned state: the coalescing map (route → pending label,
	// fib.NoLabel = withdraw), its size, and the reusable flush batches.
	pending  map[route]uint32
	npending int
	ops      []shardfib.Op
	ops6     []shardfib.Op6
	lastEnd  time.Time

	// Flusher-owned graceful-restart state: which named peer owns
	// each installed prefix (and under which session incarnation),
	// plus the per-peer backlog absorbed since the last flush. See
	// peer.go.
	owners     map[route]ownerRec
	absorbedBy map[*peerState]int

	// The named-peer registry, shared with sessions.
	peerMu sync.Mutex
	peers  map[string]*peerState

	received    atomic.Uint64
	coalesced   atomic.Uint64
	applied     atomic.Uint64
	mutated     atomic.Uint64
	rejected    atomic.Uint64
	flushes     atomic.Uint64
	applyErrors atomic.Uint64
	swept       atomic.Uint64
	shed        atomic.Uint64

	// pendingN mirrors the flusher-owned npending for scrape-time
	// reads: the gauge term that closes the conservation law
	// Received + Swept = Coalesced + Applied + pending between
	// barriers.
	pendingN atomic.Int64

	// met is the optional flush-telemetry hook installed by
	// RegisterMetrics; nil costs the flush path one pointer load.
	met atomic.Pointer[planeMetrics]
}

// planeMetrics is the plane's histogram pair, recorded by the flusher
// and read by scrapes.
type planeMetrics struct {
	// flushSeconds is one flush's span — pending-map drain, both
	// families' ApplyBatch — in raw nanoseconds.
	flushSeconds *obs.Histogram
	// staleness is the gap between a flush's start and the previous
	// flush's end: the quiet time until the next update arrived, plus
	// any Options.MinInterval wait.
	staleness *obs.Histogram
}

// New starts a plane over eng. The caller keeps ownership of eng for
// lookups; the plane only writes through ApplyBatch, which composes
// with concurrent Set/Delete/Reload callers. IPv6 updates reaching a
// v4-only plane are counted as rejected and dropped.
func New(eng *shardfib.FIB, opts Options) *Plane {
	return NewDual(eng, nil, opts)
}

// NewDual starts a dual-stack plane: v4 updates land in eng, v6
// updates in eng6. eng6 may be nil for a v4-only plane.
func NewDual(eng *shardfib.FIB, eng6 *shardfib.FIB6, opts Options) *Plane {
	opts = opts.withDefaults()
	p := &Plane{
		eng:        eng,
		eng6:       eng6,
		opts:       opts,
		in:         make(chan item, opts.Queue),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
		pending:    make(map[route]uint32),
		absorbedBy: make(map[*peerState]int),
		lastEnd:    time.Now(),
	}
	go p.run()
	return p
}

// MaxStaleness reports the plane's configured staleness cap, for
// surfacing the bound to peers and operators.
func (p *Plane) MaxStaleness() time.Duration { return p.opts.MaxStaleness }

// Enqueue accepts one update into the coalescing queue. Invalid
// updates (prefix length or label out of range) are counted as
// rejected and dropped — a session's parser never produces them, but
// the API is open to direct callers. Blocks only when the ingest
// queue is full; after Close it is a no-op.
func (p *Plane) Enqueue(u gen.Update) {
	select {
	case p.in <- item{u: u}:
	case <-p.quit:
	}
}

// EnqueueBatch accepts a burst of updates with a single queue
// handoff — the hot ingest path for in-process feeders (and, via the
// pooled variant, sessions): one flusher wakeup per burst instead of
// one per update. The slice is handed off to the plane; the caller
// must not modify it afterwards.
func (p *Plane) EnqueueBatch(us []gen.Update) {
	if len(us) == 0 {
		return
	}
	select {
	case p.in <- item{batch: us}:
	case <-p.quit:
	}
}

// enqueuePooled is EnqueueBatch for a sessionPool-owned buffer: the
// flusher returns it to the pool after absorbing it. src, when
// non-nil, attributes the burst to a named peer.
func (p *Plane) enqueuePooled(bp *[]gen.Update, src *peerState) {
	if len(*bp) == 0 {
		sessionPool.Put(bp)
		return
	}
	if src != nil {
		src.backlog.Add(int64(len(*bp)))
	}
	select {
	case p.in <- item{batch: *bp, pool: bp, src: src}:
	case <-p.quit:
	}
}

// Sync blocks until every update enqueued before the call has been
// applied and published — the convergence barrier behind the feed
// protocol's "sync" verb. Returns immediately if the plane is closed.
func (p *Plane) Sync() { p.syncPeer(nil) }

// syncPeer is Sync attributed to a named peer: if the peer declared a
// restart ("hello <name> restart"), its first barrier doubles as
// end-of-RIB and purges the routes the replay did not refresh before
// the flush publishes.
func (p *Plane) syncPeer(src *peerState) {
	ch := make(chan struct{})
	select {
	case p.in <- item{done: ch, src: src}:
		select {
		case <-ch:
		case <-p.done:
		}
	case <-p.quit:
	}
}

// Close stops the plane after draining: updates already accepted are
// coalesced, applied and published before Close returns.
func (p *Plane) Close() error {
	p.stop.Do(func() { close(p.quit) })
	<-p.done
	return nil
}

// Pending reports the number of distinct prefixes currently waiting
// in the coalescing map (0 at every Sync barrier).
func (p *Plane) Pending() int { return int(p.pendingN.Load()) }

// RegisterMetrics registers the plane's counters, the pending gauge
// and the flush-duration and staleness histograms on r under the
// ribd_ prefix. The counters are exposed straight off the existing
// atomics (zero added hot-path cost); the histograms are installed
// behind an atomic pointer the flusher checks per flush.
func (p *Plane) RegisterMetrics(r *obs.Registry) {
	m := &planeMetrics{
		flushSeconds: obs.NewHistogram(1e-9),
		staleness:    obs.NewHistogram(1e-9),
	}
	p.met.Store(m)
	r.MustCounterFunc("ribd_received_total", "", "Updates accepted into the plane.", p.received.Load)
	r.MustCounterFunc("ribd_coalesced_total", "", "Updates squashed into an already-pending prefix.", p.coalesced.Load)
	r.MustCounterFunc("ribd_applied_total", "", "Coalesced updates handed to the engine.", p.applied.Load)
	r.MustCounterFunc("ribd_mutated_total", "", "Applied updates that actually changed the engine.", p.mutated.Load)
	r.MustCounterFunc("ribd_rejected_total", "", "Updates dropped for invalid prefix or label.", p.rejected.Load)
	r.MustCounterFunc("ribd_flushes_total", "", "Batch publishes.", p.flushes.Load)
	r.MustCounterFunc("ribd_apply_errors_total", "", "Engine errors during a flush.", p.applyErrors.Load)
	r.MustCounterFunc("ribd_swept_total", "", "Stale-route withdrawals from graceful-restart sweeps.", p.swept.Load)
	r.MustCounterFunc("ribd_shed_total", "", "Sessions reset for exceeding their peer backlog budget.", p.shed.Load)
	r.MustGaugeFunc("ribd_pending", "", "Distinct prefixes waiting in the coalescing map.",
		func() uint64 { return uint64(p.pendingN.Load()) })
	r.MustHistogram("ribd_flush_seconds", "", "Flush span: pending-map drain plus both families' ApplyBatch.", m.flushSeconds)
	r.MustHistogram("ribd_staleness_seconds", "", "Gap between a flush's end and the next flush's start: quiet time until an update arrived, plus any MinInterval wait.", m.staleness)
}

// Stats snapshots the plane's counters.
func (p *Plane) Stats() Stats {
	return Stats{
		Received:    p.received.Load(),
		Coalesced:   p.coalesced.Load(),
		Applied:     p.applied.Load(),
		Mutated:     p.mutated.Load(),
		Rejected:    p.rejected.Load(),
		Flushes:     p.flushes.Load(),
		ApplyErrors: p.applyErrors.Load(),
		Swept:       p.swept.Load(),
		Shed:        p.shed.Load(),
	}
}

// run is the flusher: the single goroutine that owns the pending
// map, absorbs the ingest channel and publishes once it is drained.
func (p *Plane) run() {
	defer close(p.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	armed := false
	disarm := func() {
		if armed && !timer.Stop() {
			<-timer.C
		}
		armed = false
	}
	for {
		select {
		case it := <-p.in:
			p.absorb(it)
			// Drain the burst that queued behind this item before
			// deciding, so a hot feed coalesces in bulk instead of
			// flushing per update. Bounded per round: a producer fast
			// enough to keep the queue non-empty must not starve the
			// decision below, or nothing would publish until the feed
			// pauses. The MaxPending check stops the drain so the
			// decision below flushes; only a sweep (peer.go) pends
			// past it, in one pass, and that decision flushes it.
		burst:
			for i := 0; i < cap(p.in); i++ {
				if p.npending >= p.opts.MaxPending {
					break burst
				}
				select {
				case it := <-p.in:
					p.absorb(it)
				default:
					break burst
				}
			}
		case <-timer.C:
			armed = false
		case <-p.quit:
			// Drain whatever made it into the queue, then flush and
			// exit: Close's contract is that accepted updates land.
		drain:
			for {
				select {
				case it := <-p.in:
					p.absorb(it)
				default:
					break drain
				}
			}
			disarm()
			p.flush()
			return
		}
		if p.npending == 0 {
			disarm()
			continue
		}
		wait := time.Until(p.lastEnd.Add(p.opts.MinInterval))
		if wait <= 0 || p.npending >= p.opts.MaxPending {
			disarm()
			p.flush()
		} else if !armed {
			timer.Reset(wait)
			armed = true
		}
	}
}

// absorb folds one ingest item into the pending map; a control item
// runs the peer lifecycle; a barrier item runs any pending end-of-RIB
// sweep, forces a flush of everything before it and signals its
// waiter.
func (p *Plane) absorb(it item) {
	if it.ctl != nil {
		p.handleCtl(*it.ctl)
		return
	}
	if it.done != nil {
		if it.src != nil && it.src.sweepPending {
			// First barrier after "hello <name> restart": the peer's
			// full-RIB replay is complete, purge what it no longer
			// announces.
			it.src.sweepPending = false
			p.sweep(it.src, false)
		}
		p.flush()
		close(it.done)
		return
	}
	if it.batch != nil {
		for _, u := range it.batch {
			p.absorbUpdate(u, it.src)
		}
		if it.pool != nil {
			*it.pool = (*it.pool)[:0]
			sessionPool.Put(it.pool)
		}
		return
	}
	p.absorbUpdate(it.u, it.src)
}

// absorbUpdate validates one update against its family's width and
// coalesces it into the pending map. A v6 update on a v4-only plane is
// rejected — the session stays up (the line parsed), the counter
// records the drop. src attributes the update to a named peer for route
// ownership and backlog settlement.
func (p *Plane) absorbUpdate(u gen.Update, src *peerState) {
	if src != nil {
		p.absorbedBy[src]++
	}
	width, k := fib.W, trie.V4(u.Addr)
	if u.V6 {
		width, k = ip6.W, trie.Key(u.Addr6)
	}
	if (u.V6 && p.eng6 == nil) || u.Len < 0 || u.Len > width ||
		(!u.Withdraw && (u.NextHop == fib.NoLabel || u.NextHop > fib.MaxLabel)) {
		p.rejected.Add(1)
		return
	}
	p.received.Add(1)
	r, label := route{k.Masked(u.Len), uint8(u.Len), u.V6}, u.NextHop
	if u.Withdraw {
		label = fib.NoLabel
	}
	p.pend(r, label)
	p.own(r, src, u.Withdraw)
}

// pend coalesces one op into the pending map — the one way an update,
// received or swept, comes to wait for a flush.
func (p *Plane) pend(r route, label uint32) {
	if _, dup := p.pending[r]; dup {
		p.coalesced.Add(1)
	} else {
		p.npending++
		p.pendingN.Add(1)
	}
	p.pending[r] = label
}

// flush converts the pending map into one ApplyBatch per family — one
// DAG mutation per distinct pending prefix, one republish per touched
// shard, one merged-view rebuild — and resets the coalescing state.
// Map iteration order is immaterial: distinct prefixes commute, and
// per-prefix ordering was already resolved by the map itself.
func (p *Plane) flush() {
	// Settle peer backlogs even when there is nothing to publish: an
	// all-coalesced or all-rejected burst still counted against its
	// peer's budget at enqueue and must be released here.
	p.settleBacklog()
	if p.npending == 0 {
		return
	}
	start := time.Now()
	met := p.met.Load()
	if met != nil {
		met.staleness.Observe(uint64(start.Sub(p.lastEnd)))
	}
	ops, ops6 := p.ops[:0], p.ops6[:0]
	for r, label := range p.pending {
		if r.v6 {
			ops6 = append(ops6, shardfib.Op6{Addr: ip6.Addr(r.k), Len: int(r.plen), Label: label})
		} else {
			ops = append(ops, shardfib.Op{Addr: uint32(r.k.Hi >> 32), Len: int(r.plen), Label: label})
		}
	}
	clear(p.pending)
	if len(ops) > 0 {
		p.count(p.eng.ApplyBatch(ops))
	}
	if len(ops6) > 0 {
		p.count(p.eng6.ApplyBatch(ops6))
	}
	p.ops, p.ops6 = ops, ops6
	p.applied.Add(uint64(len(ops) + len(ops6)))
	p.flushes.Add(1)
	p.npending = 0
	p.pendingN.Store(0)
	p.lastEnd = time.Now()
	if met != nil {
		met.flushSeconds.Observe(uint64(p.lastEnd.Sub(start)))
	}
}

// count records one engine's ApplyBatch result. absorbUpdate validated
// every update, so an error is unreachable; count it rather than crash
// the plane if it ever fires.
func (p *Plane) count(mutated int, err error) {
	if err != nil {
		p.applyErrors.Add(1)
	}
	p.mutated.Add(uint64(mutated))
}
