package main

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"fibcomp/internal/gen"
)

// session is the single ribd TCP session. It remembers exactly which
// updates it wrote, in order, so the control trie can replay them.
type session struct {
	in   *inputs
	conn net.Conn
	br   *bufio.Reader
	buf  []byte

	next     int      // next feed update to write
	ranges   [][2]int // feed index ranges written, in order
	replayed int      // ranges already applied to the control
	markers  int      // marker announces written
	lines    int64    // update and marker lines written
	syncs    int64
	wrapped  int // times the feed was exhausted and restarted
}

func dialSession(in *inputs, addr string) (*session, error) {
	// fibserve opens the update listener after the lookup socket (and
	// after one plane per tenant), so the first correct reply can come
	// before it accepts.
	var conn net.Conn
	var err error
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if conn, err = net.DialTimeout("tcp", addr, 5*time.Second); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, err
		}
	}
	s := &session{in: in, conn: conn, br: bufio.NewReader(conn)}
	if in.feedVRF != 0 {
		// Scope the session to the fed tenant's own update plane.
		if _, err := fmt.Fprintf(conn, "hello bench vrf %d\n", in.feedVRF); err != nil {
			return nil, err
		}
		line, err := s.readLine()
		if err != nil {
			return nil, err
		}
		if !strings.HasPrefix(line, "hello bench ") {
			return nil, fmt.Errorf("ribd hello: %q", line)
		}
	}
	return s, nil
}

func (s *session) readLine() (string, error) {
	s.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	line, err := s.br.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("ribd session: %v", err)
	}
	line = strings.TrimSpace(line)
	if strings.HasPrefix(line, "error") {
		// The server rejected a line and closed the session.
		return "", fmt.Errorf("ribd session: server answered %q", line)
	}
	return line, nil
}

// take appends the text of the next n feed updates to b; a feed that
// runs out restarts from its first update.
func (s *session) take(b []byte, n int) []byte {
	f := s.in.feed
	if n > len(f.ups) {
		n = len(f.ups)
	}
	if s.next+n > len(f.ups) {
		s.next = 0
		s.wrapped++
	}
	if n > 0 {
		b = append(b, f.lines(s.next, s.next+n)...)
		s.ranges = append(s.ranges, [2]int{s.next, s.next + n})
		s.next += n
		s.lines += int64(n)
	}
	return b
}

// marker appends the next marker announce.
func (s *session) marker(b []byte) []byte {
	b = append(b, "announce "...)
	b = append(b, s.in.markerPfx...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(markerLabel(s.markers)), 10)
	s.markers++
	s.lines++
	return append(b, '\n')
}

// sync writes the barrier and waits for its answer: everything written
// before it is applied and published when it returns.
func (s *session) sync(b []byte) error {
	s.syncs++
	tok := "t" + strconv.FormatInt(s.syncs, 10)
	b = append(b, "sync "...)
	b = append(b, tok...)
	b = append(b, '\n')
	if _, err := s.conn.Write(b); err != nil {
		return fmt.Errorf("ribd session: %v", err)
	}
	for {
		line, err := s.readLine()
		if err != nil {
			return err
		}
		if strings.HasPrefix(line, "synced "+tok+" ") {
			return nil
		}
	}
}

// churn is the open loop beside the lookups: every 10 ms tick writes the
// updates owed at rate since the stream began, plus one marker, without
// waiting for the server. It has no goroutine of its own. The lookup loop
// calls poll between replies and while it waits for them, so the
// generator stays one thread on one CPU and a tick is written within a
// poll interval of its due time, not when the kernel next schedules a
// second thread.
type churn struct {
	s     *session
	mk    *markers
	start int64 // ns since the wire's epoch at which tick 0 is due
	ticks int
	rate  int

	k       int // next tick
	written int
	late    []float64 // how late each tick was written, ms
	err     error
}

func (c *churn) poll(now int64) {
	for c.k < c.ticks && c.err == nil && c.mk.sent < len(c.mk.due) {
		due := c.start + int64(c.k)*int64(churnTick)
		if now < due {
			return
		}
		c.late = append(c.late, float64(now-due)/1e6)
		owed := int(float64(c.rate)*(time.Duration(c.k+1)*churnTick).Seconds()) - c.written
		c.written += owed
		c.k++
		s := c.s
		s.buf = s.marker(s.take(s.buf[:0], owed))
		// Lag counts from the tick's due time, not from the write, so a
		// stalled generator or a backed-up socket shows as lag. The marker
		// is recorded before the write: a reply can carry its label as
		// soon as the bytes leave.
		c.mk.due[c.mk.sent] = due
		c.mk.sent++
		if _, err := s.conn.Write(s.buf); err != nil {
			c.err = fmt.Errorf("ribd session: %v", err)
		}
	}
}

// burstStats is what one feed window produced.
type burstStats struct {
	updates int64
	lags    []lag // burst written -> synced, and when
	// One entry per slice of the window (a slice ends with the first
	// burst to finish after its time is up); marks bracket them.
	sliceUpdates []float64
	marks        []cpuMark
}

// bursts is the closed loop of the feed window: write 4096 updates and
// a sync, wait for synced, repeat until the window is over.
func (s *session) bursts(dur time.Duration, epoch time.Time, cpu func() cpuMark) (*burstStats, error) {
	st := &burstStats{}
	mark := func(updates int64) {
		m := cpu()
		m.at = int64(time.Since(epoch))
		st.marks = append(st.marks, m)
		if len(st.marks) > 1 {
			st.sliceUpdates = append(st.sliceUpdates, float64(updates))
		}
	}
	start := time.Now()
	mark(0)
	last, lastUpdates := start, int64(0)
	for time.Since(start) < dur {
		s.buf = s.take(s.buf[:0], burstUpdates)
		n := s.ranges[len(s.ranges)-1]
		t := time.Now()
		if err := s.sync(s.buf); err != nil {
			return st, err
		}
		now := time.Now()
		st.lags = append(st.lags, lag{ms: float64(now.Sub(t)) / 1e6, at: int64(now.Sub(epoch))})
		st.updates += int64(n[1] - n[0])
		if now.Sub(last) >= dur/slices || now.Sub(start) >= dur {
			mark(st.updates - lastUpdates)
			last, lastUpdates = now, st.updates
		}
	}
	return st, nil
}

// replay brings the control trie up to everything written so far.
func (s *session) replay() {
	for ; s.replayed < len(s.ranges); s.replayed++ {
		r := s.ranges[s.replayed]
		for _, u := range s.in.feed.ups[r[0]:r[1]] {
			s.in.ctl.apply(u)
		}
	}
}

// sentSample returns an update written earlier, for the sweep to probe
// inside its prefix.
func (s *session) sentSample(i int) gen.Update {
	r := s.ranges[i%len(s.ranges)]
	return s.in.feed.ups[r[0]+i%(r[1]-r[0])]
}
