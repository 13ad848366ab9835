package ribd

import (
	"sync/atomic"
	"time"

	"fibcomp/internal/fib"
)

// Graceful restart. A peer that identifies itself by name ("hello
// <name>" on its session) owns the routes it announces: the flusher
// tags each installed prefix with the peer and the peer's session
// incarnation. When the session is lost, the routes are *retained* as
// stale — lookups keep answering from them — and a restart timer
// starts. Three things can happen:
//
//   - The peer reconnects (another "hello <name>") inside the window
//     and continues incrementally (seq-based resume): nothing was
//     lost, nothing is stale, no sweep runs.
//   - The peer reconnects with "hello <name> restart" — it lost its
//     own state and replays its full RIB. Each re-announcement
//     refreshes the route's incarnation tag; the peer's first sync
//     barrier doubles as end-of-RIB and immediately purges the routes
//     it did not refresh. A bounced peer therefore costs a delta, not
//     a full-table withdraw-and-replay.
//   - The peer stays away: when the restart timer fires, every route
//     it still owns is withdrawn in bulk (mark-and-sweep).
//
// Sweep-generated withdrawals flow through the ordinary coalescing
// and publish machinery and are counted in Stats.Swept, so the
// conservation law extends to
// Received + Swept = Coalesced + Applied + pending.
//
// Anonymous sessions (no hello) keep the pre-restart semantics: their
// routes are never tagged and never swept.

// peerState is the plane's durable identity for one named feed peer,
// persisting across that peer's sessions. The atomics are written by
// sessions (seq, backlog, byte/reset counters) or by the flusher
// (routes, up); gen and sweepPending are flusher-owned.
type peerState struct {
	name string

	// seq counts updates accepted (parsed and enqueued) from this
	// peer's sessions, lifetime. The hello reply reports it so a
	// reconnecting feeder can resume exactly after the last accepted
	// update instead of replaying the feed.
	seq atomic.Uint64

	// backlog is the peer's overload measure: updates accepted from
	// its sessions but not yet flushed to the engine. Sessions
	// increment it at enqueue; the flusher settles it at each flush.
	// A session whose peer's backlog exceeds Options.PeerBudget is
	// shed (reset) rather than allowed to grow the plane without
	// bound.
	backlog atomic.Int64

	// routes is the number of prefixes currently owned by this peer
	// (flusher-written, read by PeerInfo).
	routes atomic.Int64

	up       atomic.Bool // a session for this peer is live
	bytes    atomic.Uint64
	resets   atomic.Uint64
	timeouts atomic.Uint64

	// Flusher-owned graceful-restart state: gen is the session
	// incarnation (bumped by every hello), sweepPending arms the
	// end-of-RIB purge after a "hello ... restart".
	gen          uint64
	sweepPending bool
}

// PeerInfo is a point-in-time snapshot of one named peer's state.
type PeerInfo struct {
	Name     string `json:"name"`
	Up       bool   `json:"up"`
	Seq      uint64 `json:"seq"`      // updates accepted, lifetime
	Routes   int64  `json:"routes"`   // prefixes currently owned
	Bytes    uint64 `json:"bytes"`    // feed bytes read from this peer's sessions
	Resets   uint64 `json:"resets"`   // sessions ended abnormally
	Timeouts uint64 `json:"timeouts"` // sessions reset by the idle deadline
}

// PeerInfo snapshots every named peer the plane has seen, for
// operator surfaces (fibserve's shutdown report).
func (p *Plane) PeerInfo() []PeerInfo {
	p.peerMu.Lock()
	defer p.peerMu.Unlock()
	out := make([]PeerInfo, 0, len(p.peers))
	for _, ps := range p.peers {
		out = append(out, PeerInfo{
			Name:     ps.name,
			Up:       ps.up.Load(),
			Seq:      ps.seq.Load(),
			Routes:   ps.routes.Load(),
			Bytes:    ps.bytes.Load(),
			Resets:   ps.resets.Load(),
			Timeouts: ps.timeouts.Load(),
		})
	}
	return out
}

// ctlKind discriminates the peer-lifecycle control events the
// sessions (and restart timers) hand to the flusher, which owns all
// graceful-restart state.
type ctlKind int

const (
	ctlUp     ctlKind = iota // session identified itself (hello)
	ctlDown                  // session lost
	ctlExpire                // restart timer fired
)

// ctl is one peer-lifecycle event on the ingest channel.
type ctl struct {
	kind    ctlKind
	ps      *peerState
	restart bool   // ctlUp: the peer replays its full RIB (arm the end-of-RIB sweep)
	gen     uint64 // ctlExpire: the incarnation the timer was armed against
}

// peerUp registers (or revives) the named peer and hands the
// incarnation bump to the flusher. It must be called before any of
// the session's updates are enqueued so the channel order guarantees
// the new incarnation tags them.
func (p *Plane) peerUp(name string, restart bool) *peerState {
	p.peerMu.Lock()
	ps := p.peers[name]
	if ps == nil {
		ps = &peerState{name: name}
		if p.peers == nil {
			p.peers = make(map[string]*peerState)
		}
		p.peers[name] = ps
	}
	p.peerMu.Unlock()
	p.enqueueCtl(ctl{kind: ctlUp, ps: ps, restart: restart})
	return ps
}

// peerDown reports the loss of a named peer's session. The flusher
// marks the peer down and, if it owns routes, arms the restart timer
// that will sweep them unless the peer returns.
func (p *Plane) peerDown(ps *peerState) {
	p.enqueueCtl(ctl{kind: ctlDown, ps: ps})
}

// enqueueCtl routes a control event through the ingest channel so it
// is serialized with the update stream; after Close it is dropped.
func (p *Plane) enqueueCtl(c ctl) {
	select {
	case p.in <- item{ctl: &c}:
	case <-p.quit:
	}
}

// handleCtl is the flusher's side of the peer lifecycle.
func (p *Plane) handleCtl(c ctl) {
	ps := c.ps
	switch c.kind {
	case ctlUp:
		ps.gen++
		ps.up.Store(true)
		// Only a declared full-RIB replay arms the end-of-RIB purge;
		// a seq-resuming peer left nothing stale. A restart with no
		// retained routes has nothing to purge either.
		ps.sweepPending = c.restart && ps.routes.Load() > 0
	case ctlDown:
		ps.up.Store(false)
		if ps.routes.Load() == 0 {
			return
		}
		if p.opts.RestartTime < 0 {
			// Negative window: no grace, sweep immediately.
			p.sweep(ps, true)
			return
		}
		gen := ps.gen
		time.AfterFunc(p.opts.RestartTime, func() {
			p.enqueueCtl(ctl{kind: ctlExpire, ps: ps, gen: gen})
		})
	case ctlExpire:
		// Valid only if the peer has not been up since the timer was
		// armed; a reconnect (even a short-lived one) re-arms on its
		// own loss.
		if !ps.up.Load() && ps.gen == c.gen {
			p.sweep(ps, true)
		}
	}
}

// sweep withdraws the peer's owned routes: all of them (timer expiry)
// or only the ones not refreshed by the current incarnation (the
// end-of-RIB delta purge). The withdrawals land in the ordinary
// pending map and are published by the same flush as any other
// update. A sweep pends all of them in one pass, past
// Options.MaxPending; the flusher's next decision flushes them in one
// batch.
func (p *Plane) sweep(ps *peerState, all bool) {
	for r, rec := range p.owners {
		if rec.ps != ps || (!all && rec.gen == ps.gen) {
			continue
		}
		p.pend(r, fib.NoLabel)
		delete(p.owners, r)
		ps.routes.Add(-1)
		p.swept.Add(1)
	}
}

// ownerRec tags one installed prefix with the peer that announced it
// and the peer's session incarnation at the time — the mark the
// graceful-restart sweep tests.
type ownerRec struct {
	ps  *peerState
	gen uint64
}

// own records ownership of a route: an announce from a named peer
// claims it, a withdrawal or an anonymous overwrite releases it.
func (p *Plane) own(r route, src *peerState, withdraw bool) {
	if src == nil && len(p.owners) == 0 {
		return // nothing tracked, nothing to release — the common anonymous case
	}
	if prev, ok := p.owners[r]; ok {
		if !withdraw && src == prev.ps {
			p.owners[r] = ownerRec{src, src.gen} // refresh the mark
			return
		}
		prev.ps.routes.Add(-1)
		delete(p.owners, r)
	}
	if src != nil && !withdraw {
		if p.owners == nil {
			p.owners = make(map[route]ownerRec)
		}
		p.owners[r] = ownerRec{src, src.gen}
		src.routes.Add(1)
	}
}

// settleBacklog releases the per-peer backlog the flusher absorbed
// since the last settlement — the bookkeeping behind the overload
// budget. Called at every flush, including empty ones.
func (p *Plane) settleBacklog() {
	for ps, n := range p.absorbedBy {
		ps.backlog.Add(-int64(n))
		delete(p.absorbedBy, ps)
	}
}
