package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Frame bytes of the lookup protocol (see internal/lookupd).
const (
	afInet6 = 6
	vrfInet = 0x84
)

// sendmmsg/recvmmsg numbers; the syscall package names only the latter.
func mmsgNumbers() (recv, send uintptr) {
	if runtime.GOARCH == "arm64" {
		return 243, 269
	}
	return 299, 307 // amd64
}

type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

const (
	maxWindow   = 64
	maxDatagram = 3 + 16*256
	replyWait   = 2 * time.Second // a datagram unanswered this long has failed
	rttEvery    = 16              // round-trip time is sampled on 1 datagram in 16
)

// slot remembers one datagram in flight, so its reply can be checked.
type slot struct {
	sent   int64 // ns since the wire's epoch
	off    int   // first general-pool key
	ngen   int   // general-pool keys carried
	tn     int   // tenant index, -1 outside the VRF workload
	toff   int   // first tenant-pool key
	nten   int   // tenant-pool keys carried (they come first)
	probe  bool  // slot 0 asks for the marker
	sample bool  // time this round trip
}

// markers is the convergence-lag bookkeeping: the churn records each
// marker's due time as it writes it, and the lookup loop resolves them
// as replies show their labels.
type markers struct {
	due  []int64 // ns since the epoch at which marker k was due on the wire
	sent int     // markers written so far
	seen int     // markers resolved so far; marker seen-1's label is on the wire
	lags []lag
}

// lag is one marker's convergence lag and when it was observed. One
// reply resolves every marker of a batch the plane published together;
// proc is the lag of the freshest of them, which waited for nothing but
// the batch's own processing.
type lag struct {
	ms   float64
	proc float64 // ms
	at   int64   // ns since the epoch
}

// cpuMark is one reading, at a slice boundary, of the server's and the
// generator's CPU clocks and of the time the hypervisor has kept CPUs
// from the guest.
type cpuMark struct {
	at              int64 // ns since the epoch
	srv, gen, steal float64
}

// lookStats is what one lookup window produced.
type lookStats struct {
	// One entry per slice, over the measured part and the tail alike;
	// the first mainSlices entries are the measured part.
	mainSlices int
	perSlice   []int64     // correctly answered addresses, by reply time
	rtt        [][]float64 // sampled round trips, us
	// marks[i] is the reading taken as slice i began; one more as the
	// last one ended.
	marks      []cpuMark
	datagrams  int64
	answered   int64 // addresses answered correctly
	unanswered int64 // datagrams with no reply in replyWait
	wrong      int64 // replies with a wrong length, header or label
	firstWrong string
}

func (st *lookStats) bad(what string) {
	st.wrong++
	if st.firstWrong == "" {
		st.firstWrong = fmt.Sprintf("datagram %d: %s", st.datagrams, what)
	}
}

// wire is the single lookup socket: a closed loop that keeps a fixed
// window of datagrams in flight and checks every reply.
type wire struct {
	in     *inputs
	conn   *net.UDPConn
	rc     syscall.RawConn
	epoch  time.Time
	hdr    int
	batch  int
	window int
	mk     *markers
	cpu    func() cpuMark // reads the CPU clocks at a slice boundary
	churn  *churn         // the open-loop feed this loop also drives, if any

	slots      [maxWindow]slot
	head, infl int
	seq        int64
	off        int
	toffs      []int

	spun time.Duration // spent polling an empty socket

	sendBuf [maxWindow][maxDatagram]byte
	recvBuf [maxWindow][maxDatagram]byte
	sendIov [maxWindow]syscall.Iovec
	recvIov [maxWindow]syscall.Iovec
	sendHdr [maxWindow]mmsghdr
	recvHdr [maxWindow]mmsghdr
}

func dialWire(in *inputs, addr string, mk *markers, epoch time.Time) (*wire, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		conn.Close()
		return nil, err
	}
	w := &wire{in: in, conn: conn, rc: rc, epoch: epoch, mk: mk, batch: in.sp.batch, window: in.sp.window,
		toffs: make([]int, len(in.tenants))}
	switch {
	case len(in.tenants) > 0:
		w.hdr = 3
	case in.sp.v6:
		w.hdr = 1
	}
	for i := 0; i < maxWindow; i++ {
		w.sendIov[i].Base = &w.sendBuf[i][0]
		w.sendHdr[i].hdr.Iov = &w.sendIov[i]
		w.sendHdr[i].hdr.Iovlen = 1
		w.recvIov[i].Base = &w.recvBuf[i][0]
		w.recvIov[i].SetLen(maxDatagram)
		w.recvHdr[i].hdr.Iov = &w.recvIov[i]
		w.recvHdr[i].hdr.Iovlen = 1
	}
	return w, nil
}

func (w *wire) now() int64 { return int64(time.Since(w.epoch)) }

// build writes the next datagram into send buffer i and returns its
// slot: header, then (VRF only) an eighth of the batch from the
// tenant's own pool, then a contiguous run of the general pool.
func (w *wire) build(i int, now int64) slot {
	in := w.in
	buf := w.sendBuf[i][:]
	s := slot{sent: now, tn: -1, sample: w.seq%rttEvery == 0}
	pos := w.hdr
	probeOK := true
	switch w.hdr {
	case 1:
		buf[0] = afInet6
	case 3:
		s.tn = int(w.seq % int64(len(in.tenants)))
		tn := &in.tenants[s.tn]
		buf[0] = vrfInet
		binary.BigEndian.PutUint16(buf[1:], tn.id)
		probeOK = tn.id == in.feedVRF
		if s.nten = w.batch / 8; s.nten > 0 {
			if w.toffs[s.tn]+s.nten > tn.pool.n {
				w.toffs[s.tn] = 0
			}
			s.toff = w.toffs[s.tn]
			w.toffs[s.tn] += s.nten
			pos += copy(buf[pos:], tn.pool.keys[4*s.toff:4*(s.toff+s.nten)])
		}
	}
	s.ngen = w.batch - s.nten
	if w.off+s.ngen > in.pool.n {
		w.off = 0
	}
	s.off = w.off
	w.off += s.ngen
	pos += copy(buf[pos:], in.pool.keys[in.asz*s.off:in.asz*(s.off+s.ngen)])
	// On the VRF workload only the fed tenant's datagrams can probe, and
	// the rotation reaches it once per lap.
	if probeOK && (w.hdr == 3 || w.seq%int64(in.sp.probeNth) == 0) {
		s.probe = true
		copy(buf[w.hdr:], in.markerKey)
	}
	w.sendIov[i].SetLen(pos)
	w.seq++
	return s
}

// send builds and writes k new datagrams with one sendmmsg.
func (w *wire) send(k int) error {
	now := w.now()
	for i := 0; i < k; i++ {
		w.slots[(w.head+w.infl+i)%maxWindow] = w.build(i, now)
	}
	_, sysSend := mmsgNumbers()
	sent := 0
	for sent < k {
		var n uintptr
		var errno syscall.Errno
		err := w.rc.Write(func(fd uintptr) bool {
			n, _, errno = syscall.Syscall6(sysSend, fd, uintptr(unsafe.Pointer(&w.sendHdr[sent])),
				uintptr(k-sent), uintptr(syscall.MSG_DONTWAIT), 0, 0)
			return errno != syscall.EAGAIN
		})
		if err != nil {
			return err
		}
		if errno != 0 {
			return errno
		}
		sent += int(n)
	}
	w.infl += k
	return nil
}

// recv waits for at least one reply and returns how many arrived; a
// deadline error means nothing came within replyWait. It waits by
// polling the socket, not by parking on the runtime's poller: the
// generator has a CPU to itself, and a generator that sleeps makes the
// server pay for an inter-processor wake-up with every burst of replies
// (on a virtual machine an exit to the hypervisor each), which is the
// generator's cost, not the server's. The time spent polling an empty
// socket is kept in w.spun, so the generator's busy time can still be
// told from its CPU time.
func (w *wire) recv() (int, error) {
	sysRecv, _ := mmsgNumbers()
	var n uintptr
	var errno syscall.Errno
	var began time.Time
	expired := false
	for polls := 0; ; polls++ {
		err := w.rc.Read(func(fd uintptr) bool {
			n, _, errno = syscall.Syscall6(sysRecv, fd, uintptr(unsafe.Pointer(&w.recvHdr[0])),
				uintptr(w.infl), uintptr(syscall.MSG_DONTWAIT), 0, 0)
			return true
		})
		if err != nil {
			return 0, err
		}
		if errno != syscall.EAGAIN {
			break
		}
		// Nothing yet, and this poll was made after the wait ran out (so a
		// generator that was itself kept off its CPU does not fail replies
		// that arrived meanwhile).
		if expired {
			w.spun += time.Since(began)
			return 0, os.ErrDeadlineExceeded
		}
		// The clock is read on the first empty poll and then once in 256,
		// and a churn tick that has come due is written.
		if polls&255 != 0 {
			continue
		}
		now := time.Now()
		if w.churn != nil {
			w.churn.poll(int64(now.Sub(w.epoch)))
		}
		if polls == 0 {
			began = now
		}
		expired = now.Sub(began) > replyWait
	}
	if !began.IsZero() {
		w.spun += time.Since(began)
	}
	if errno != 0 {
		return 0, errno
	}
	return int(n), nil
}

// check verifies reply buffer i against the oldest datagram in flight.
// strict compares every label with the control's; with a BGP-like feed
// running beside the lookups the labels move, so only framing and the
// marker slot are checked and the differential sweep after the final
// sync is the label check.
func (w *wire) check(i int, now int64, strict bool, st *lookStats, slice int) {
	s := w.slots[w.head]
	w.head = (w.head + 1) % maxWindow
	w.infl--
	got := w.recvBuf[i][:w.recvHdr[i].n]
	in := w.in
	st.datagrams++
	if len(got) != w.hdr+4*w.batch || !w.headerOK(got, s) {
		st.bad("a reply of the wrong length or with a foreign header")
		return
	}
	labels := got[w.hdr:]
	lo := 0 // first label to compare: the marker slot has its own check
	if s.probe {
		lo = 1
		w.resolve(binary.BigEndian.Uint32(labels), now, st)
	}
	if strict {
		ok := true
		if s.nten > lo {
			tn := &in.tenants[s.tn]
			ok = bytes.Equal(labels[4*lo:4*s.nten], tn.pool.exp[4*(s.toff+lo):4*(s.toff+s.nten)])
		}
		if g := max(lo, s.nten); ok && g < w.batch {
			ok = bytes.Equal(labels[4*g:], in.pool.exp[4*(s.off+g-s.nten):4*(s.off+s.ngen)])
		}
		if !ok {
			st.bad("a label differs from the control trie's")
			return
		}
	}
	st.answered += int64(w.batch)
	if slice >= 0 && slice < len(st.perSlice) {
		st.perSlice[slice] += int64(w.batch)
		if s.sample {
			st.rtt[slice] = append(st.rtt[slice], float64(now-s.sent)/1e3)
		}
	}
}

// headerOK checks the echoed frame header of a reply.
func (w *wire) headerOK(got []byte, s slot) bool {
	switch w.hdr {
	case 1:
		return got[0] == afInet6
	case 3:
		return got[0] == vrfInet && binary.BigEndian.Uint16(got[1:]) == w.in.tenants[s.tn].id
	}
	return true
}

// resolve matches the marker slot's label against the markers written
// and not yet seen: the label names the newest marker the server has
// applied, and every older pending one converged no later.
func (w *wire) resolve(label uint32, now int64, st *lookStats) {
	mk := w.mk
	for k := mk.sent - 1; k >= mk.seen; k-- {
		if markerLabel(k) == label {
			for j := mk.seen; j <= k; j++ {
				mk.lags = append(mk.lags, lag{ms: float64(now-mk.due[j]) / 1e6, proc: float64(now-mk.due[k]) / 1e6, at: now})
			}
			mk.seen = k + 1
			return
		}
	}
	if mk.seen == 0 || markerLabel(mk.seen-1) != label {
		st.bad(fmt.Sprintf("marker slot answered label %d, which no pending marker carries", label))
	}
}

// run drives the closed loop for the measured part of a run, main, and
// then for tail longer, the stretch in which a workload that does not
// churn throughout streams the standard churn for the sake of its
// markers; the two together are cut into slices. After that it goes on
// for at most drain while markers written are still unseen. strict says
// whether the labels of main can be compared with the control's; the
// tail's never can.
func (w *wire) run(main, tail, drain time.Duration, strict bool) (*lookStats, error) {
	startNs := w.now()
	mainEnd := startNs + int64(main)
	endNs := mainEnd + int64(tail)
	sliceNs := int64(main+tail) / slices
	st := &lookStats{perSlice: make([]int64, slices), rtt: make([][]float64, slices),
		mainSlices: int((int64(main) + sliceNs/2) / sliceNs)}
	// recv polls; a deadline an earlier ask left behind must not fail it.
	w.conn.SetReadDeadline(time.Time{})
	if err := w.send(w.window); err != nil {
		return st, err
	}
	for w.infl > 0 {
		n, err := w.recv()
		now := w.now()
		if w.churn != nil {
			w.churn.poll(now)
		}
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				return st, err
			}
			// Nothing for replyWait: everything in flight has failed.
			// Replies on one socket are matched by order, so wait out
			// any straggler before starting a fresh window.
			st.unanswered += int64(w.infl)
			st.datagrams += int64(w.infl)
			w.head, w.infl = 0, 0
			w.flush()
			n = 0
		}
		slice := int((now - startNs) / sliceNs)
		for w.cpu != nil && len(st.marks) <= slice && len(st.marks) <= len(st.perSlice) {
			m := w.cpu()
			m.at = now
			st.marks = append(st.marks, m)
		}
		// Labels are fixed, and compared, until the churn's first write.
		fixed := strict && now < mainEnd && (w.churn == nil || now < w.churn.start)
		for i := 0; i < n; i++ {
			w.check(i, now, fixed, st, slice)
		}
		// Refill in halves: new datagrams go out once half the window has
		// come back, in one sendmmsg. The server then always finds a burst
		// of half a window to serve while the generator checks the half
		// before it, whatever the two sides' relative timing; refilling
		// reply by reply would let that timing decide the burst size, and
		// with it the cost per datagram.
		need := w.window - w.infl
		if 2*need >= w.window && (now < endNs || now < endNs+int64(drain) && w.mk.seen < w.mk.sent) {
			if err := w.send(need); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}

// flush discards late replies for a short while.
func (w *wire) flush() {
	buf := make([]byte, maxDatagram)
	for {
		w.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		if _, err := w.conn.Read(buf); err != nil {
			break
		}
	}
	w.conn.SetReadDeadline(time.Time{})
}

// ask sends one datagram of the given keys (wire form) for a tenant (or
// the default table) and returns the labels, outside any window.
func (w *wire) ask(tn int, keys []byte, wait time.Duration) ([]byte, error) {
	buf := make([]byte, 0, maxDatagram)
	switch w.hdr {
	case 1:
		buf = append(buf, afInet6)
	case 3:
		buf = append(buf, vrfInet, 0, 0)
		binary.BigEndian.PutUint16(buf[1:], w.in.tenants[tn].id)
	}
	buf = append(buf, keys...)
	if _, err := w.conn.Write(buf); err != nil {
		return nil, err
	}
	w.conn.SetReadDeadline(time.Now().Add(wait))
	reply := make([]byte, maxDatagram)
	n, err := w.conn.Read(reply)
	if err != nil {
		return nil, err
	}
	count := len(keys) / w.in.asz
	if n != w.hdr+4*count || !bytes.Equal(reply[:w.hdr], buf[:w.hdr]) {
		return nil, fmt.Errorf("reply of %d bytes for %d addresses", n, count)
	}
	return reply[w.hdr:n], nil
}
