// Package lookupd is a small UDP longest-prefix-match service: a
// remote lookup microservice exposing a compressed dual-stack FIB, in
// the spirit of the control-plane tooling a software router ships
// with. One datagram carries a batch of big-endian addresses; the
// reply carries one next-hop label per address. The serving FIBs can
// be swapped atomically while requests are in flight.
//
// Wire protocol. A legacy request is 1..MaxBatch 4-byte IPv4
// addresses and its reply is one 4-byte label per address — exactly
// the PR 1 format, still served unchanged. A tagged request prepends
// one address-family byte (4 or 6) to the address block: 4-byte
// addresses after AF 4, 16-byte addresses after AF 6; its reply
// echoes the AF byte followed by the 4-byte labels. Tagged lengths
// are ≡ 1 (mod 4) while legacy lengths are ≡ 0, so the two framings
// can never be confused and v4 clients keep working bit-for-bit.
//
// A VRF-tagged request scopes the batch to one tenant table: first
// byte VRFInet (0x84) or VRFInet6 (0x86), a 2-byte big-endian tenant
// id, then the address block; the reply echoes the 3-byte header
// before the labels. VRF lengths are ≡ 3 (mod 4) — provably disjoint
// from both legacy (≡ 0) and AF-tagged (≡ 1) framings — and the
// 0x84/0x86 first byte disambiguates the two VRF families. A VRF id
// the server has no table for answers "no route" on every address,
// exactly as an empty tenant would. Anything else — zero addresses, a bad family byte, a short v6
// address, an oversized batch — is dropped and counted, never
// answered with garbage and never a panic.
//
// Serving scale-out. The server runs Options.Workers independent
// serve loops. On Linux with Options.ReusePort, each loop owns its
// own SO_REUSEPORT socket bound to the same address, so the kernel
// flow-hashes client 4-tuples across loops with zero shared state;
// elsewhere (or with ReusePort off) the loops share one socket, whose
// reads the runtime serializes while dispatch and reply run in
// parallel. Each loop owns its wire working set outright — no pools,
// no cross-loop cache traffic — counts into its own cache-line-padded
// stats slot, and, on Linux, moves datagrams in bursts: one recvmmsg
// drains up to burstSize requests, the serving view is pinned once
// for the whole burst, and one sendmmsg pushes every reply back out.
package lookupd

import (
	"encoding/binary"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fibcomp/internal/fib"
	"fibcomp/internal/ip6"
	"fibcomp/internal/obs"
	"fibcomp/internal/shardfib"
)

// Lookuper is any longest-prefix-match engine.
type Lookuper interface {
	Lookup(addr uint32) uint32
}

// BatchLookuper is an optional fast path: engines that can resolve a
// whole batch at once (e.g. a sharded FIB amortizing per-shard
// snapshot loads) implement it and the server dispatches request
// datagrams through it instead of looping over Lookup.
type BatchLookuper interface {
	Lookuper
	LookupBatch(addrs []uint32) []uint32
}

// batchIntoLookuper is the allocation-free refinement the server
// prefers: labels land in a server-owned buffer, so the UDP serve
// loop generates no garbage per datagram.
type batchIntoLookuper interface {
	LookupBatchInto(dst, addrs []uint32)
}

// Lookuper6 is the IPv6 engine contract; shardfib.FIB6 and ip6.Blob
// both satisfy it. The method set is family-typed (ip6.Addr), so an
// engine can never be dispatched the wrong family's addresses.
type Lookuper6 interface {
	Lookup(addr ip6.Addr) uint32
}

// VRFResolver maps a wire tenant id to its serving engine pair.
// vrftab.Registry is the canonical implementation; the contract is
// concrete (sharded engines, not interfaces) so the VRF dispatch arms
// can pin per-datagram views without boxing. Resolve must be safe for
// unsynchronized concurrent use and should not allocate — it sits on
// the datagram fast path.
type VRFResolver interface {
	Resolve(id uint16) (*shardfib.FIB, *shardfib.FIB6, bool)
}

// batchInto6Lookuper is the allocation-free IPv6 refinement, the
// LookupBatchInto twin over 128-bit addresses.
type batchInto6Lookuper interface {
	LookupBatchInto(dst []uint32, addrs []ip6.Addr)
}

// Protocol limits and framing constants.
const (
	MaxBatch    = 256
	maxDatagram = 4 * MaxBatch // legacy v4 request / reply body

	// AFInet / AFInet6 tag the address family of a tagged request's
	// address block (and of its reply).
	AFInet  = 4
	AFInet6 = 6

	// VRFInet / VRFInet6 open a VRF-tagged request: frame-type byte,
	// 2-byte big-endian tenant id, then the address block. The high bit
	// keeps them disjoint from the AF bytes, and the 3-byte header
	// makes VRF lengths ≡ 3 (mod 4), disjoint from both other framings.
	VRFInet  = 0x84
	VRFInet6 = 0x86

	vrfHdrSize = 3 // frame-type byte + 2-byte tenant id

	addr6Size   = 16
	maxRequest  = vrfHdrSize + addr6Size*MaxBatch // largest well-formed datagram (VRF-tagged v6)
	maxResponse = vrfHdrSize + 4*MaxBatch         // VRF reply: 3-byte header + labels
)

// MaxWorkers bounds the serve-loop count; past the socket buffer and
// core counts this many loops could exploit, more workers only cost
// memory.
const MaxWorkers = 256

// scratch is the decoded-word working set one datagram needs: address
// and label words of either family. Each serve loop owns one and
// reuses it across every datagram it handles.
type scratch struct {
	addrs  [MaxBatch]uint32
	addrs6 [MaxBatch]ip6.Addr
	labels [MaxBatch]uint32
}

// wire is the single-datagram working set of the portable serve loop:
// request and reply bytes plus the decoded-word scratch. Each loop
// owns its own — the former global sync.Pool is retired, so the hot
// path shares no allocator state between loops.
type wire struct {
	req  [maxRequest + 4]byte
	resp [maxResponse]byte
	scratch
}

// workerStats is one serve loop's counters on obs cells: each cell is
// padded to its own pair of cache lines so concurrent loops never
// write-share a line (the global atomics the cells replace were
// measured bouncing between every core at high datagram rates). Reads
// aggregate across loops. The histogram pointers alias the
// server-wide service-time and burst-size histograms so the burst
// loop reaches all its telemetry through one pointer; they are nil in
// the socketless tests that build a bare workerStats, which
// Histogram.Observe tolerates.
type workerStats struct {
	requests obs.Cell
	lookups  obs.Cell
	errors   obs.Cell // socket errors
	drops    obs.Cell // malformed datagrams dropped unanswered
	svc      *obs.Histogram
	burst    *obs.Histogram
}

// Options configures Listen's serving topology.
type Options struct {
	// Workers is the number of independent serve loops; 0 means 1.
	Workers int

	// ReusePort binds one SO_REUSEPORT socket per worker (Linux) so
	// the kernel flow-hashes clients across loops. Where unsupported,
	// or when false, all workers share a single socket — correct on
	// every platform, with reads serialized by the runtime.
	ReusePort bool

	// VRFs resolves VRF-tagged requests to tenant tables. Nil servers
	// answer every VRF-tagged request with "no route" labels (the
	// frames stay well-formed — they are answered, not dropped).
	VRFs VRFResolver
}

// Server serves lookups over UDP.
type Server struct {
	conns   []*net.UDPConn // one per worker (reuseport) or exactly one (shared)
	workers int
	fib     atomic.Value // *engineBox (Lookuper)
	fib6    atomic.Value // *engineBox6 (Lookuper6; l6 nil when v6 is unconfigured)
	vrfs    VRFResolver  // fixed at Listen; nil means no VRF tables

	wg     sync.WaitGroup
	closed atomic.Bool
	stats  []workerStats // one padded slot per worker

	// svcHist records burst dispatch service time in nanoseconds;
	// burstHist records datagrams per recvmmsg burst. Shared across
	// loops — an Observe is two atomic adds spread over a 4 KiB bucket
	// array, and the burst path observes once per burst, not per
	// datagram.
	svcHist   *obs.Histogram
	burstHist *obs.Histogram
}

// Listen binds a UDP socket ("127.0.0.1:0" picks an ephemeral port)
// and starts a single serve loop answering IPv4 lookups against l;
// IPv6 requests answer "no route" until Swap6 installs a v6 engine.
func Listen(addr string, l Lookuper) (*Server, error) {
	return ListenOptions(addr, l, nil, Options{})
}

// ListenDual is Listen with both families: l serves v4 datagrams, l6
// serves tagged v6 datagrams. l6 may be nil — a server without v6
// routes answers v6 requests with ip6.NoLabel on every address, the
// same answer an empty v6 table would give.
func ListenDual(addr string, l Lookuper, l6 Lookuper6) (*Server, error) {
	return ListenOptions(addr, l, l6, Options{})
}

// ListenOptions is ListenDual with an explicit serving topology: N
// parallel serve loops over per-worker SO_REUSEPORT sockets or one
// shared socket (see Options).
func ListenOptions(addr string, l Lookuper, l6 Lookuper6, o Options) (*Server, error) {
	if l == nil {
		return nil, fmt.Errorf("lookupd: nil lookup engine")
	}
	workers := o.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > MaxWorkers {
		return nil, fmt.Errorf("lookupd: %d workers out of [1,%d]", workers, MaxWorkers)
	}
	var conns []*net.UDPConn
	if workers > 1 && o.ReusePort && reusePortSupported {
		// One socket per loop, every one bound to the same address.
		// The first bind resolves ":0" to a concrete port; the rest
		// must bind that exact address or the group would splinter.
		for i := 0; i < workers; i++ {
			bindAddr := addr
			if i > 0 {
				bindAddr = conns[0].LocalAddr().String()
			}
			conn, err := listenReusePort(bindAddr)
			if err != nil {
				for _, c := range conns {
					c.Close()
				}
				return nil, fmt.Errorf("lookupd: reuseport socket %d: %v", i, err)
			}
			conns = append(conns, conn)
		}
	} else {
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("lookupd: %v", err)
		}
		conn, err := net.ListenUDP("udp", ua)
		if err != nil {
			return nil, fmt.Errorf("lookupd: %v", err)
		}
		conns = []*net.UDPConn{conn}
	}
	s := &Server{
		conns:     conns,
		workers:   workers,
		vrfs:      o.VRFs,
		stats:     make([]workerStats, workers),
		svcHist:   obs.NewHistogram(1e-9), // ns observed, seconds exposed
		burstHist: obs.NewHistogram(0),
	}
	for i := range s.stats {
		s.stats[i].svc = s.svcHist
		s.stats[i].burst = s.burstHist
	}
	s.fib.Store(&engineBox{l})
	s.fib6.Store(&engineBox6{l6})
	for i := 0; i < workers; i++ {
		conn := conns[0]
		if len(conns) > 1 {
			conn = conns[i]
		}
		s.wg.Add(1)
		go s.serveWorker(conn, &s.stats[i])
	}
	return s, nil
}

// engineBox wraps the interface so atomic.Value sees one concrete type.
type engineBox struct{ l Lookuper }

// engineBox6 is engineBox for the v6 engine slot.
type engineBox6 struct{ l6 Lookuper6 }

// Addr reports the bound address (identical across worker sockets).
func (s *Server) Addr() net.Addr { return s.conns[0].LocalAddr() }

// Workers reports the number of serve loops.
func (s *Server) Workers() int { return s.workers }

// ShardedSockets reports whether each serve loop owns its own
// SO_REUSEPORT socket (as opposed to all loops sharing one).
func (s *Server) ShardedSockets() bool { return len(s.conns) > 1 }

// Requests reports the number of well-formed requests served,
// aggregated across serve loops.
func (s *Server) Requests() uint64 {
	var n uint64
	for i := range s.stats {
		n += s.stats[i].requests.Load()
	}
	return n
}

// Lookups reports the number of addresses resolved, aggregated across
// serve loops.
func (s *Server) Lookups() uint64 {
	var n uint64
	for i := range s.stats {
		n += s.stats[i].lookups.Load()
	}
	return n
}

// Errors reports the number of dropped datagrams and socket errors,
// aggregated across serve loops. (Drops narrows to just the malformed
// datagrams; Errors keeps the historical both-kinds meaning the
// fibserve drain line reports.)
func (s *Server) Errors() uint64 {
	var n uint64
	for i := range s.stats {
		n += s.stats[i].errors.Load() + s.stats[i].drops.Load()
	}
	return n
}

// Drops reports the number of malformed datagrams dropped unanswered,
// aggregated across serve loops.
func (s *Server) Drops() uint64 {
	var n uint64
	for i := range s.stats {
		n += s.stats[i].drops.Load()
	}
	return n
}

// WorkerStat is one serve loop's counters, the per-worker row the
// fibserve drain report and /statusz render.
type WorkerStat struct {
	Worker   int    `json:"worker"`
	Requests uint64 `json:"requests"`
	Lookups  uint64 `json:"lookups"`
	Errors   uint64 `json:"errors"`
	Drops    uint64 `json:"drops"`
}

// WorkerStats snapshots every serve loop's counters.
func (s *Server) WorkerStats() []WorkerStat {
	out := make([]WorkerStat, len(s.stats))
	for i := range s.stats {
		out[i] = WorkerStat{
			Worker:   i,
			Requests: s.stats[i].requests.Load(),
			Lookups:  s.stats[i].lookups.Load(),
			Errors:   s.stats[i].errors.Load(),
			Drops:    s.stats[i].drops.Load(),
		}
	}
	return out
}

// Metrics is the server's aggregate telemetry view: the counter
// totals plus the shared latency and burst-size histograms (service
// time in raw nanoseconds, burst size in raw datagram counts).
type Metrics struct {
	Requests uint64
	Lookups  uint64
	Errors   uint64
	Drops    uint64

	ServiceSeconds *obs.Histogram
	BurstSize      *obs.Histogram
}

// Metrics snapshots the aggregate counters and hands out the live
// histograms (reads of which are atomic and cheap).
func (s *Server) Metrics() Metrics {
	return Metrics{
		Requests:       s.Requests(),
		Lookups:        s.Lookups(),
		Errors:         s.Errors(),
		Drops:          s.Drops(),
		ServiceSeconds: s.svcHist,
		BurstSize:      s.burstHist,
	}
}

// RegisterMetrics registers the server's metrics on r under the
// lookupd_ prefix: per-worker counter series (a single unlabeled
// series when the server runs one loop) plus the service-time and
// burst-size histograms. Scrapes read the same per-worker cells the
// serve loops write — registration adds no hot-path cost.
func (s *Server) RegisterMetrics(r *obs.Registry) {
	counter := func(name, help string, read func(*workerStats) uint64) {
		if s.workers == 1 {
			st := &s.stats[0]
			r.MustCounterFunc(name, "", help, func() uint64 { return read(st) })
			return
		}
		for i := range s.stats {
			st := &s.stats[i]
			r.MustCounterFunc(name, `worker="`+strconv.Itoa(i)+`"`, help, func() uint64 { return read(st) })
		}
	}
	counter("lookupd_requests_total", "Well-formed request datagrams served.",
		func(st *workerStats) uint64 { return st.requests.Load() })
	counter("lookupd_lookups_total", "Addresses resolved.",
		func(st *workerStats) uint64 { return st.lookups.Load() })
	counter("lookupd_errors_total", "Socket errors.",
		func(st *workerStats) uint64 { return st.errors.Load() })
	counter("lookupd_drops_total", "Malformed datagrams dropped unanswered.",
		func(st *workerStats) uint64 { return st.drops.Load() })
	r.MustHistogram("lookupd_service_seconds", "", "Dispatch service time per burst (Linux) or per datagram (portable loop).", s.svcHist)
	r.MustHistogram("lookupd_burst_datagrams", "", "Datagrams drained per recvmmsg burst.", s.burstHist)
}

// Swap atomically replaces the serving IPv4 FIB. Loops running a
// burst finish it against the view they pinned; the next burst sees
// the new engine.
func (s *Server) Swap(l Lookuper) {
	if l != nil {
		s.fib.Store(&engineBox{l})
	}
}

// Swap6 atomically replaces the serving IPv6 FIB.
func (s *Server) Swap6(l6 Lookuper6) {
	if l6 != nil {
		s.fib6.Store(&engineBox6{l6})
	}
}

// Close stops the server immediately and releases every socket. An
// in-flight request may lose its reply; use Shutdown for a graceful
// stop.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	var err error
	for _, conn := range s.conns {
		if cerr := conn.Close(); err == nil {
			err = cerr
		}
	}
	s.wg.Wait()
	return err
}

// Shutdown stops the server gracefully: no further datagrams are
// read, but every loop's in-flight burst completes and its replies
// are sent before the sockets close — the drain fibserve performs on
// SIGINT/SIGTERM. The read deadline must land on every worker conn:
// with per-worker reuseport sockets, expiring only the first would
// drain one loop and leave the other workers blocked in their reads
// forever (and Close racing their replies). A deadline unblocks the
// read without closing the socket, so pending writes still succeed.
func (s *Server) Shutdown() error {
	if s.closed.Swap(true) {
		return nil
	}
	now := time.Now()
	for _, conn := range s.conns {
		conn.SetReadDeadline(now)
	}
	s.wg.Wait()
	var err error
	for _, conn := range s.conns {
		if cerr := conn.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// serveWorker is one serve loop. On Linux it drains the socket in
// recvmmsg/sendmmsg bursts; elsewhere it falls back to the portable
// one-datagram-per-syscall loop. Either way the loop owns its buffers
// and stats slot outright.
func (s *Server) serveWorker(conn *net.UDPConn, st *workerStats) {
	defer s.wg.Done()
	if b := newBurstConn(conn); b != nil {
		s.serveBurst(b, st)
		return
	}
	s.serveSimple(conn, st)
}

// serveSimple is the portable serve loop: one read syscall, one
// dispatch, one write syscall per datagram, against a loop-owned wire
// buffer.
func (s *Server) serveSimple(conn *net.UDPConn, st *workerStats) {
	w := new(wire)
	for {
		n, peer, err := conn.ReadFromUDPAddrPort(w.req[:])
		if err != nil {
			if s.closed.Load() {
				return
			}
			st.errors.Inc()
			continue
		}
		start := time.Now()
		respLen, _ := s.dispatchOne(w, n, st)
		st.svc.Observe(uint64(time.Since(start)))
		if respLen == 0 {
			continue // malformed request: drop, like a router would
		}
		if _, err := conn.WriteToUDPAddrPort(w.resp[:respLen], peer); err != nil {
			st.errors.Inc()
		}
	}
}

// pinned is the engine pair one burst dispatches against: the
// interfaces to hand dispatch, plus the pinned shardfib views (when
// the engines are sharded FIBs) to release afterwards. Pinning here
// means a burst costs two reader-count atomics per family total,
// not two per datagram, and every datagram in the burst resolves
// against one immutable view. shardfib views are single pointers, so
// boxing them in the interfaces allocates nothing.
type pinned struct {
	l  Lookuper
	l6 Lookuper6
	v4 shardfib.View
	v6 shardfib.View6
	p4 bool
	p6 bool
}

// pinEngines loads both family engines once and pins their merged
// serving views for the duration of a burst.
func (s *Server) pinEngines() pinned {
	var p pinned
	if box, ok := s.fib.Load().(*engineBox); ok {
		p.l = box.l
	}
	if box6, ok := s.fib6.Load().(*engineBox6); ok {
		p.l6 = box6.l6
	}
	if f, ok := p.l.(*shardfib.FIB); ok {
		p.v4 = f.PinView()
		p.l = p.v4
		p.p4 = true
	}
	if f6, ok := p.l6.(*shardfib.FIB6); ok {
		p.v6 = f6.PinView()
		p.l6 = p.v6
		p.p6 = true
	}
	return p
}

// release unpins whatever pinEngines pinned.
func (p *pinned) release() {
	if p.p4 {
		p.v4.Release()
	}
	if p.p6 {
		p.v6.Release()
	}
}

// dispatchOne is the single-datagram path: resolve engines, pin,
// dispatch, release, count. The burst loop amortizes the same steps
// across up to burstSize datagrams.
func (s *Server) dispatchOne(w *wire, n int, st *workerStats) (respLen, count int) {
	p := s.pinEngines()
	respLen, count = dispatch(p.l, p.l6, s.vrfs, w.req[:n], w.resp[:], &w.scratch)
	p.release()
	st.count(respLen, count)
	return respLen, count
}

// count records one dispatch outcome.
func (st *workerStats) count(respLen, lookups int) {
	if respLen == 0 {
		st.drops.Inc()
		return
	}
	st.requests.Inc()
	st.lookups.Add(uint64(lookups))
}

// dispatch classifies one request datagram against the wire framing
// (legacy v4, tagged v4, tagged v6, VRF-tagged v4/v6), runs the
// matching handler and reports the reply length — 0 for a malformed
// datagram the caller must drop — plus the number of addresses
// resolved. Legacy lengths are multiples of 4, tagged lengths are
// 1 (mod 4) and VRF lengths are 3 (mod 4), so the classification is
// branch-exact (every datagram lands in exactly one arm or the drop),
// and every arm stays on the caller-owned-buffer zero-allocation
// path.
func dispatch(l Lookuper, l6 Lookuper6, vrfs VRFResolver, req, resp []byte, sc *scratch) (respLen, count int) {
	n := len(req)
	switch {
	case n > 0 && n%4 == 0 && n <= maxDatagram:
		count = handleAt(l, req, resp, sc, 0, n)
		return n, count
	case n > 1 && req[0] == AFInet && (n-1)%4 == 0 && n-1 <= maxDatagram:
		resp[0] = AFInet
		count = handleAt(l, req, resp, sc, 1, n-1)
		return 1 + 4*count, count
	case n > 1 && req[0] == AFInet6 && (n-1)%addr6Size == 0 && n-1 <= addr6Size*MaxBatch:
		count = handle6(l6, req, resp, sc, n-1)
		return 1 + 4*count, count
	case n > vrfHdrSize && req[0] == VRFInet && (n-vrfHdrSize)%4 == 0 && n-vrfHdrSize <= maxDatagram:
		count = handleVRF4(vrfs, req, resp, sc, n-vrfHdrSize)
		return vrfHdrSize + 4*count, count
	case n > vrfHdrSize && req[0] == VRFInet6 && (n-vrfHdrSize)%addr6Size == 0 && n-vrfHdrSize <= addr6Size*MaxBatch:
		count = handleVRF6(vrfs, req, resp, sc, n-vrfHdrSize)
		return vrfHdrSize + 4*count, count
	default:
		return 0, 0 // zero addresses, bad family byte, torn address, oversize
	}
}

// handleAt is the one IPv4 dispatch body both v4 framings share: the
// address block starts at req[off:] and labels land at resp[off:], so
// the legacy and tagged arms differ only in the one-byte offset. This
// is the whole per-datagram fast path between the two syscalls; with
// a batch engine it performs zero heap allocations (enforced by
// TestHandleZeroAllocs).
func handleAt(l Lookuper, req, resp []byte, sc *scratch, off, body int) int {
	count := body / 4
	switch e := l.(type) {
	case batchIntoLookuper:
		for i := 0; i < count; i++ {
			sc.addrs[i] = binary.BigEndian.Uint32(req[off+4*i:])
		}
		e.LookupBatchInto(sc.labels[:count], sc.addrs[:count])
		for i, label := range sc.labels[:count] {
			binary.BigEndian.PutUint32(resp[off+4*i:], label)
		}
	case BatchLookuper:
		for i := 0; i < count; i++ {
			sc.addrs[i] = binary.BigEndian.Uint32(req[off+4*i:])
		}
		for i, label := range e.LookupBatch(sc.addrs[:count]) {
			binary.BigEndian.PutUint32(resp[off+4*i:], label)
		}
	default:
		for i := 0; i < count; i++ {
			addr := binary.BigEndian.Uint32(req[off+4*i:])
			binary.BigEndian.PutUint32(resp[off+4*i:], l.Lookup(addr))
		}
	}
	return count
}

// handle6 serves an AF-tagged IPv6 request: 16-byte big-endian
// addresses at req[1:], AF byte echoed, one 4-byte label each. A nil
// engine (v6 unconfigured) answers ip6.NoLabel everywhere — the
// answer an empty v6 table would give. As with handleAt, the
// batch-into path performs zero heap allocations per datagram.
func handle6(l6 Lookuper6, req, resp []byte, sc *scratch, body int) int {
	count := body / addr6Size
	resp[0] = AFInet6
	if l6 == nil {
		for i := 0; i < count; i++ {
			binary.BigEndian.PutUint32(resp[1+4*i:], ip6.NoLabel)
		}
		return count
	}
	for i := 0; i < count; i++ {
		sc.addrs6[i] = ip6.Addr{
			Hi: binary.BigEndian.Uint64(req[1+addr6Size*i:]),
			Lo: binary.BigEndian.Uint64(req[1+addr6Size*i+8:]),
		}
	}
	if e, ok := l6.(batchInto6Lookuper); ok {
		e.LookupBatchInto(sc.labels[:count], sc.addrs6[:count])
		for i, label := range sc.labels[:count] {
			binary.BigEndian.PutUint32(resp[1+4*i:], label)
		}
		return count
	}
	for i := 0; i < count; i++ {
		binary.BigEndian.PutUint32(resp[1+4*i:], l6.Lookup(sc.addrs6[i]))
	}
	return count
}

// handleVRF4 serves a VRF-tagged IPv4 request: 3-byte header echoed,
// 4-byte big-endian addresses at req[3:], one 4-byte label each,
// resolved against the tenant's own table. An unknown tenant id — or
// a server with no VRF resolver at all — answers fib.NoLabel on every
// address, the answer an empty tenant table would give; tenant ids
// are data, and data never turns into a drop that a co-tenant could
// observe as a behavioural difference. The tenant's merged view is
// pinned once per datagram (a View is one pointer, so no boxing) and
// the whole body stays on the zero-allocation path.
func handleVRF4(vrfs VRFResolver, req, resp []byte, sc *scratch, body int) int {
	count := body / 4
	resp[0], resp[1], resp[2] = VRFInet, req[1], req[2]
	var f4 *shardfib.FIB
	if vrfs != nil {
		f4, _, _ = vrfs.Resolve(binary.BigEndian.Uint16(req[1:vrfHdrSize]))
	}
	if f4 == nil {
		for i := 0; i < count; i++ {
			binary.BigEndian.PutUint32(resp[vrfHdrSize+4*i:], fib.NoLabel)
		}
		return count
	}
	for i := 0; i < count; i++ {
		sc.addrs[i] = binary.BigEndian.Uint32(req[vrfHdrSize+4*i:])
	}
	v := f4.PinView()
	v.LookupBatchInto(sc.labels[:count], sc.addrs[:count])
	v.Release()
	for i, label := range sc.labels[:count] {
		binary.BigEndian.PutUint32(resp[vrfHdrSize+4*i:], label)
	}
	return count
}

// handleVRF6 is handleVRF4 for the v6 family: 16-byte addresses,
// same 3-byte echoed header, unknown tenants answering ip6.NoLabel.
func handleVRF6(vrfs VRFResolver, req, resp []byte, sc *scratch, body int) int {
	count := body / addr6Size
	resp[0], resp[1], resp[2] = VRFInet6, req[1], req[2]
	var f6 *shardfib.FIB6
	if vrfs != nil {
		_, f6, _ = vrfs.Resolve(binary.BigEndian.Uint16(req[1:vrfHdrSize]))
	}
	if f6 == nil {
		for i := 0; i < count; i++ {
			binary.BigEndian.PutUint32(resp[vrfHdrSize+4*i:], ip6.NoLabel)
		}
		return count
	}
	for i := 0; i < count; i++ {
		sc.addrs6[i] = ip6.Addr{
			Hi: binary.BigEndian.Uint64(req[vrfHdrSize+addr6Size*i:]),
			Lo: binary.BigEndian.Uint64(req[vrfHdrSize+addr6Size*i+8:]),
		}
	}
	v := f6.PinView()
	v.LookupBatchInto(sc.labels[:count], sc.addrs6[:count])
	v.Release()
	for i, label := range sc.labels[:count] {
		binary.BigEndian.PutUint32(resp[vrfHdrSize+4*i:], label)
	}
	return count
}

// DefaultTimeout is the reply deadline a Dial'd client starts with.
// UDP replies can be lost; a client that waited forever on a dropped
// reply deadlocked every caller sharing it, which is the bug this
// default exists to make impossible.
const DefaultTimeout = 2 * time.Second

// TimeoutError reports a lookup whose reply did not arrive within the
// client's timeout. It satisfies the net.Error Timeout contract, so
// callers can discriminate it with errors.As or a Timeout() check.
type TimeoutError struct {
	Addr string        // server address
	Wait time.Duration // how long the client waited
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("lookupd: no reply from %s within %v", e.Addr, e.Wait)
}

// Timeout reports true; a lookupd timeout is always retryable.
func (e *TimeoutError) Timeout() bool { return true }

// Temporary reports true, matching net.Error's historical contract.
func (e *TimeoutError) Temporary() bool { return true }

// Client is a blocking client for the lookup service. Every lookup is
// bounded by the reply timeout (DefaultTimeout unless DialTimeout
// chose otherwise): a request whose reply never arrives
// returns *TimeoutError instead of blocking forever. After a timeout
// the client re-dials its socket from a fresh ephemeral port, so a
// late reply to the timed-out request can never be mistaken for the
// answer to a later one — stale datagrams land on a port nobody reads.
type Client struct {
	mu      sync.Mutex
	conn    *net.UDPConn
	raddr   *net.UDPAddr
	timeout time.Duration
	buf     []byte
}

// Dial connects a client to a server address with DefaultTimeout.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, DefaultTimeout)
}

// DialTimeout is Dial with an explicit reply timeout; timeout <= 0
// means DefaultTimeout (an unbounded client is not offered — see the
// Client contract).
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("lookupd: %v", err)
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, fmt.Errorf("lookupd: %v", err)
	}
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	return &Client{conn: conn, raddr: ua, timeout: timeout, buf: make([]byte, maxRequest)}, nil
}

// exchange writes c.buf[:reqLen] and reads the reply back into c.buf
// under the client's deadline, re-dialing on timeout so no stale reply
// survives into the next call. Called with c.mu held.
func (c *Client) exchange(reqLen int) (int, error) {
	if _, err := c.conn.Write(c.buf[:reqLen]); err != nil {
		return 0, err
	}
	if err := c.conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	n, err := c.conn.Read(c.buf)
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			c.redial()
			return 0, &TimeoutError{Addr: c.raddr.String(), Wait: c.timeout}
		}
		return 0, err
	}
	return n, nil
}

// redial replaces the client socket with one bound to a fresh
// ephemeral port. A reply that arrives after its deadline is
// addressed to the old port and can therefore never satisfy — or even
// reach — a later request; the reply buffer needs no draining because
// nothing stale can land in it. If the re-dial itself fails the old
// socket is kept: its queue may hold a stale datagram, but a broken
// socket would fail every future call outright. Called with c.mu
// held.
func (c *Client) redial() {
	conn, err := net.DialUDP("udp", nil, c.raddr)
	if err != nil {
		return
	}
	c.conn.Close()
	c.conn = conn
}

// replyAF reports the address-family/frame byte of a reply, or -1 for
// an empty reply — so error paths never index an empty buffer.
func replyAF(buf []byte, n int) int {
	if n < 1 {
		return -1
	}
	return int(buf[0])
}

// Lookup resolves a single address.
func (c *Client) Lookup(addr uint32) (uint32, error) {
	labels, err := c.LookupBatch([]uint32{addr})
	if err != nil {
		return 0, err
	}
	return labels[0], nil
}

// LookupBatch resolves up to MaxBatch addresses in one round trip.
func (c *Client) LookupBatch(addrs []uint32) ([]uint32, error) {
	if len(addrs) == 0 || len(addrs) > MaxBatch {
		return nil, fmt.Errorf("lookupd: batch size %d out of [1,%d]", len(addrs), MaxBatch)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, a := range addrs {
		binary.BigEndian.PutUint32(c.buf[4*i:], a)
	}
	n, err := c.exchange(4 * len(addrs))
	if err != nil {
		return nil, err
	}
	if n != 4*len(addrs) {
		return nil, fmt.Errorf("lookupd: short reply: %d bytes for %d addresses", n, len(addrs))
	}
	out := make([]uint32, len(addrs))
	for i := range out {
		out[i] = binary.BigEndian.Uint32(c.buf[4*i:])
	}
	return out, nil
}

// LookupBatchTagged4 resolves up to MaxBatch IPv4 addresses in one
// round trip speaking the AF-tagged framing: family byte 4, then the
// 4-byte big-endian addresses; the reply echoes the family byte
// before the labels. Answers are identical to LookupBatch — this
// exists for clients that tag every request uniformly regardless of
// family.
func (c *Client) LookupBatchTagged4(addrs []uint32) ([]uint32, error) {
	if len(addrs) == 0 || len(addrs) > MaxBatch {
		return nil, fmt.Errorf("lookupd: batch size %d out of [1,%d]", len(addrs), MaxBatch)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf[0] = AFInet
	for i, a := range addrs {
		binary.BigEndian.PutUint32(c.buf[1+4*i:], a)
	}
	n, err := c.exchange(1 + 4*len(addrs))
	if err != nil {
		return nil, err
	}
	if n != 1+4*len(addrs) || c.buf[0] != AFInet {
		return nil, fmt.Errorf("lookupd: bad tagged v4 reply: %d bytes (af %d) for %d addresses", n, replyAF(c.buf, n), len(addrs))
	}
	out := make([]uint32, len(addrs))
	for i := range out {
		out[i] = binary.BigEndian.Uint32(c.buf[1+4*i:])
	}
	return out, nil
}

// Lookup6 resolves a single IPv6 address.
func (c *Client) Lookup6(addr ip6.Addr) (uint32, error) {
	labels, err := c.LookupBatch6([]ip6.Addr{addr})
	if err != nil {
		return 0, err
	}
	return labels[0], nil
}

// LookupBatch6 resolves up to MaxBatch IPv6 addresses in one round
// trip, speaking the AF-tagged framing: one family byte, then the
// 16-byte big-endian addresses; the reply echoes the family byte
// before the labels.
func (c *Client) LookupBatch6(addrs []ip6.Addr) ([]uint32, error) {
	if len(addrs) == 0 || len(addrs) > MaxBatch {
		return nil, fmt.Errorf("lookupd: batch size %d out of [1,%d]", len(addrs), MaxBatch)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf[0] = AFInet6
	for i, a := range addrs {
		binary.BigEndian.PutUint64(c.buf[1+addr6Size*i:], a.Hi)
		binary.BigEndian.PutUint64(c.buf[1+addr6Size*i+8:], a.Lo)
	}
	n, err := c.exchange(1 + addr6Size*len(addrs))
	if err != nil {
		return nil, err
	}
	if n != 1+4*len(addrs) || c.buf[0] != AFInet6 {
		return nil, fmt.Errorf("lookupd: bad v6 reply: %d bytes (af %d) for %d addresses", n, replyAF(c.buf, n), len(addrs))
	}
	out := make([]uint32, len(addrs))
	for i := range out {
		out[i] = binary.BigEndian.Uint32(c.buf[1+4*i:])
	}
	return out, nil
}

// LookupVRF resolves a single IPv4 address within a tenant table.
func (c *Client) LookupVRF(vrf uint16, addr uint32) (uint32, error) {
	labels, err := c.LookupBatchVRF(vrf, []uint32{addr})
	if err != nil {
		return 0, err
	}
	return labels[0], nil
}

// LookupBatchVRF resolves up to MaxBatch IPv4 addresses against one
// tenant's table in one round trip, speaking the VRF-tagged framing.
// The reply must echo the full 3-byte header — frame byte and tenant
// id — or it is rejected, so a reply belonging to a different tenant's
// request can never be mis-attributed.
func (c *Client) LookupBatchVRF(vrf uint16, addrs []uint32) ([]uint32, error) {
	if len(addrs) == 0 || len(addrs) > MaxBatch {
		return nil, fmt.Errorf("lookupd: batch size %d out of [1,%d]", len(addrs), MaxBatch)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf[0] = VRFInet
	binary.BigEndian.PutUint16(c.buf[1:], vrf)
	for i, a := range addrs {
		binary.BigEndian.PutUint32(c.buf[vrfHdrSize+4*i:], a)
	}
	n, err := c.exchange(vrfHdrSize + 4*len(addrs))
	if err != nil {
		return nil, err
	}
	if n != vrfHdrSize+4*len(addrs) || c.buf[0] != VRFInet || binary.BigEndian.Uint16(c.buf[1:]) != vrf {
		return nil, fmt.Errorf("lookupd: bad vrf v4 reply: %d bytes (frame %d) for %d addresses in vrf %d", n, replyAF(c.buf, n), len(addrs), vrf)
	}
	out := make([]uint32, len(addrs))
	for i := range out {
		out[i] = binary.BigEndian.Uint32(c.buf[vrfHdrSize+4*i:])
	}
	return out, nil
}

// Lookup6VRF resolves a single IPv6 address within a tenant table.
func (c *Client) Lookup6VRF(vrf uint16, addr ip6.Addr) (uint32, error) {
	labels, err := c.LookupBatch6VRF(vrf, []ip6.Addr{addr})
	if err != nil {
		return 0, err
	}
	return labels[0], nil
}

// LookupBatch6VRF resolves up to MaxBatch IPv6 addresses against one
// tenant's table in one round trip, with the same full-header echo
// validation as LookupBatchVRF.
func (c *Client) LookupBatch6VRF(vrf uint16, addrs []ip6.Addr) ([]uint32, error) {
	if len(addrs) == 0 || len(addrs) > MaxBatch {
		return nil, fmt.Errorf("lookupd: batch size %d out of [1,%d]", len(addrs), MaxBatch)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf[0] = VRFInet6
	binary.BigEndian.PutUint16(c.buf[1:], vrf)
	for i, a := range addrs {
		binary.BigEndian.PutUint64(c.buf[vrfHdrSize+addr6Size*i:], a.Hi)
		binary.BigEndian.PutUint64(c.buf[vrfHdrSize+addr6Size*i+8:], a.Lo)
	}
	n, err := c.exchange(vrfHdrSize + addr6Size*len(addrs))
	if err != nil {
		return nil, err
	}
	if n != vrfHdrSize+4*len(addrs) || c.buf[0] != VRFInet6 || binary.BigEndian.Uint16(c.buf[1:]) != vrf {
		return nil, fmt.Errorf("lookupd: bad vrf v6 reply: %d bytes (frame %d) for %d addresses in vrf %d", n, replyAF(c.buf, n), len(addrs), vrf)
	}
	out := make([]uint32, len(addrs))
	for i := range out {
		out[i] = binary.BigEndian.Uint32(c.buf[vrfHdrSize+4*i:])
	}
	return out, nil
}

// Close releases the client socket.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}
