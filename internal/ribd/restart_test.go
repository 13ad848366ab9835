package ribd

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"fibcomp/internal/faultnet"
	"fibcomp/internal/fib"
	"fibcomp/internal/gen"
	"fibcomp/internal/shardfib"
)

// helloPeer opens a named session and consumes the hello reply,
// returning the server-reported accepted cursor.
func helloPeer(t *testing.T, s *Server, name string, restart bool) (net.Conn, *bufSession) {
	t.Helper()
	c, br := dialSession(t, s)
	verb := "hello " + name
	if restart {
		verb += " restart"
	}
	fmt.Fprintf(c, "%s\n", verb)
	reply, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("hello reply: %v", err)
	}
	if !strings.HasPrefix(reply, "hello "+name+" seq=") {
		t.Fatalf("hello reply %q", reply)
	}
	return c, &bufSession{br: br, reply: strings.TrimSpace(reply)}
}

type bufSession struct {
	br    interface{ ReadString(byte) (string, error) }
	reply string
}

func (b *bufSession) seq(t *testing.T) uint64 {
	t.Helper()
	n, err := parseHello(b.reply, strings.Fields(b.reply)[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func (b *bufSession) sync(t *testing.T, c net.Conn, token string) string {
	t.Helper()
	fmt.Fprintf(c, "sync %s\n", token)
	reply, err := b.br.ReadString('\n')
	if err != nil {
		t.Fatalf("sync reply: %v", err)
	}
	if !strings.HasPrefix(reply, "synced "+token) {
		t.Fatalf("sync reply %q", reply)
	}
	return strings.TrimSpace(reply)
}

// TestGracefulRestartEndOfRIB: a named peer's routes survive its
// session; a reconnect declaring a restart replays a subset, and the
// end-of-RIB sync purges exactly the unrefreshed remainder — a delta,
// not a full-table withdraw.
func TestGracefulRestartEndOfRIB(t *testing.T) {
	eng := testEngine(t, 4)
	p := New(eng, Options{MaxStaleness: 2 * time.Millisecond, RestartTime: time.Hour})
	defer p.Close()
	s, err := Serve(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c1, b1 := helloPeer(t, s, "A", false)
	if got := b1.seq(t); got != 0 {
		t.Fatalf("fresh peer seq = %d", got)
	}
	fmt.Fprintf(c1, "announce 10.0.0.0/8 2\nannounce 11.0.0.0/8 3\nannounce 12.0.0.0/8 4\n")
	b1.sync(t, c1, "rib1")
	c1.Close()
	time.Sleep(20 * time.Millisecond) // session teardown drains

	// Session lost, restart window open: every route still answers.
	if got := eng.Lookup(0x0C000001); got != 4 {
		t.Fatalf("stale route gone before the window: 12.0.0.1 -> %d", got)
	}

	// Restart replay refreshing two of the three (one with a new
	// label); the sync barrier is end-of-RIB.
	c2, b2 := helloPeer(t, s, "A", true)
	if got := b2.seq(t); got != 3 {
		t.Fatalf("restart hello seq = %d, want 3", got)
	}
	fmt.Fprintf(c2, "announce 10.0.0.0/8 2\nannounce 11.0.0.0/8 5\n")
	b2.sync(t, c2, "eor")

	if got := eng.Lookup(0x0A000001); got != 2 {
		t.Fatalf("refreshed route lost: 10.0.0.1 -> %d, want 2", got)
	}
	if got := eng.Lookup(0x0B000001); got != 5 {
		t.Fatalf("refreshed label not applied: 11.0.0.1 -> %d, want 5", got)
	}
	if got := eng.Lookup(0x0C000001); got != 1 {
		t.Fatalf("unrefreshed route survived end-of-RIB: 12.0.0.1 -> %d, want default 1", got)
	}

	st := p.Stats()
	if st.Swept != 1 {
		t.Fatalf("swept = %d, want 1: %+v", st.Swept, st)
	}
	if st.Received+st.Swept != st.Coalesced+st.Applied {
		t.Fatalf("conservation with sweeps violated: %+v", st)
	}
	infos := p.PeerInfo()
	if len(infos) != 1 || infos[0].Name != "A" || infos[0].Routes != 2 || infos[0].Seq != 5 {
		t.Fatalf("peer info %+v", infos)
	}
}

// TestGracefulRestartResume: a plain reconnect (seq resume) sweeps
// nothing — the peer continues incrementally.
func TestGracefulRestartResume(t *testing.T) {
	eng := testEngine(t, 4)
	p := New(eng, Options{MaxStaleness: 2 * time.Millisecond, RestartTime: time.Hour})
	defer p.Close()
	s, err := Serve(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c1, b1 := helloPeer(t, s, "B", false)
	fmt.Fprintf(c1, "announce 10.0.0.0/8 2\nannounce 10.1.0.0/16 3\n")
	b1.sync(t, c1, "a")
	c1.Close()
	time.Sleep(20 * time.Millisecond)

	c2, b2 := helloPeer(t, s, "B", false)
	if got := b2.seq(t); got != 2 {
		t.Fatalf("resume seq = %d, want 2", got)
	}
	fmt.Fprintf(c2, "announce 10.2.0.0/16 4\n")
	b2.sync(t, c2, "b")

	for addr, want := range map[uint32]uint32{0x0A000001: 2, 0x0A010001: 3, 0x0A020001: 4} {
		if got := eng.Lookup(addr); got != want {
			t.Fatalf("%08x -> %d, want %d", addr, got, want)
		}
	}
	if st := p.Stats(); st.Swept != 0 {
		t.Fatalf("resume swept %d routes: %+v", st.Swept, st)
	}
}

// TestRestartTimerSweeps: a peer that never returns loses its routes
// when the window expires — and not a microsecond of serving before.
func TestRestartTimerSweeps(t *testing.T) {
	eng := testEngine(t, 4)
	p := New(eng, Options{MaxStaleness: 2 * time.Millisecond, RestartTime: 80 * time.Millisecond})
	defer p.Close()
	s, err := Serve(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c1, b1 := helloPeer(t, s, "C", false)
	fmt.Fprintf(c1, "announce 10.0.0.0/8 7\n")
	b1.sync(t, c1, "up")
	c1.Close()

	// Inside the window the stale route still serves.
	time.Sleep(20 * time.Millisecond)
	if got := eng.Lookup(0x0A000001); got != 7 {
		t.Fatalf("stale route swept inside the window: got %d", got)
	}
	// After expiry it is withdrawn.
	deadline := time.Now().Add(5 * time.Second)
	for eng.Lookup(0x0A000001) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("stale route never swept after the restart window")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := p.Stats(); st.Swept != 1 {
		t.Fatalf("swept = %d: %+v", st.Swept, st)
	}
	infos := p.PeerInfo()
	if len(infos) != 1 || infos[0].Routes != 0 || infos[0].Up {
		t.Fatalf("peer info after sweep: %+v", infos)
	}
}

// TestRestartTimerCancelledByReconnect: a reconnect inside the window
// invalidates the armed sweep even if that session also ends.
func TestRestartTimerCancelledByReconnect(t *testing.T) {
	eng := testEngine(t, 4)
	p := New(eng, Options{MaxStaleness: 2 * time.Millisecond, RestartTime: 60 * time.Millisecond})
	defer p.Close()
	s, err := Serve(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c1, b1 := helloPeer(t, s, "D", false)
	fmt.Fprintf(c1, "announce 10.0.0.0/8 7\n")
	b1.sync(t, c1, "up")
	c1.Close()
	time.Sleep(20 * time.Millisecond)

	// Reconnect inside the window and stay connected past the first
	// timer's expiry: the old incarnation's sweep must not fire.
	c2, b2 := helloPeer(t, s, "D", false)
	_ = b2
	time.Sleep(80 * time.Millisecond)
	if got := eng.Lookup(0x0A000001); got != 7 {
		t.Fatalf("live peer's route swept by a stale timer: got %d", got)
	}
	c2.Close()
}

// TestImmediateSweepWithoutGrace: RestartTime < 0 disables the grace
// window entirely.
func TestImmediateSweepWithoutGrace(t *testing.T) {
	eng := testEngine(t, 4)
	p := New(eng, Options{MaxStaleness: 2 * time.Millisecond, RestartTime: -1})
	defer p.Close()
	s, err := Serve(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c1, b1 := helloPeer(t, s, "E", false)
	fmt.Fprintf(c1, "announce 10.0.0.0/8 7\n")
	b1.sync(t, c1, "up")
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for eng.Lookup(0x0A000001) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("route not swept immediately with RestartTime < 0")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSweepCountsPending: sweep-generated withdrawals wait in the
// pending map like received updates and are counted by the pending
// gauge, so between a sweep and the flush that publishes it the
// scrape-time law Received + Swept = Coalesced + Applied + Pending
// holds.
func TestSweepCountsPending(t *testing.T) {
	eng := testEngine(t, 4)
	p := New(eng, Options{RestartTime: -1, MinInterval: 5 * time.Second})
	defer p.Close()
	s, err := Serve(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, b := helloPeer(t, s, "G", false)
	for i := 0; i < 10; i++ {
		fmt.Fprintf(c, "announce 10.%d.0.0/16 7\n", i)
	}
	b.sync(t, c, "up")
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Swept < 10 {
		if time.Now().After(deadline) {
			t.Fatal("routes not swept on session loss with RestartTime < 0")
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, pending := p.Stats(), uint64(p.Pending())
	if pending != 10 || st.Received+st.Swept != st.Coalesced+st.Applied+pending {
		t.Fatalf("received %d + swept %d != coalesced %d + applied %d + pending %d (want 10 pending)",
			st.Received, st.Swept, st.Coalesced, st.Applied, pending)
	}
}

// TestSweepPastMaxPending: a sweep pends every route the lost peer
// owned in one pass, past MaxPending, and the next decision flushes
// the whole sweep: at the barrier the conservation law holds and every
// swept address answers the default route again.
func TestSweepPastMaxPending(t *testing.T) {
	eng := testEngine(t, 4)
	p := New(eng, Options{RestartTime: -1, MaxPending: 64})
	defer p.Close()
	s, err := Serve(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 200
	c, b := helloPeer(t, s, "M", false)
	for i := 0; i < n; i++ {
		fmt.Fprintf(c, "announce 10.%d.0.0/16 7\n", i)
	}
	b.sync(t, c, "up")
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Swept < n {
		if time.Now().After(deadline) {
			t.Fatal("routes not swept on session loss with RestartTime < 0")
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.Sync()
	st, pending := p.Stats(), uint64(p.Pending())
	if st.Swept != n || st.Received+st.Swept != st.Coalesced+st.Applied+pending {
		t.Fatalf("received %d + swept %d != coalesced %d + applied %d + pending %d (want %d swept)",
			st.Received, st.Swept, st.Coalesced, st.Applied, pending, n)
	}
	for i := 0; i < n; i++ {
		if got := eng.Lookup(0x0A000001 | uint32(i)<<16); got != 1 {
			t.Fatalf("10.%d.0.1 -> %d after the sweep, want the default 1", i, got)
		}
	}
}

// TestIdleTimeoutResets: a silent peer is reset with a counted
// timeout instead of pinning its goroutine.
func TestIdleTimeoutResets(t *testing.T) {
	eng := testEngine(t, 4)
	p := New(eng, Options{})
	defer p.Close()
	s, err := ServeOptions(p, "127.0.0.1:0", ServerOptions{IdleTimeout: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, b := helloPeer(t, s, "F", false)
	fmt.Fprintf(c, "announce 10.0.0.0/8 3\n")
	// Now go silent. The server must reset us.
	reply, err := b.br.ReadString('\n')
	if err != nil {
		t.Fatalf("expected an idle reset reply, got %v", err)
	}
	if !strings.HasPrefix(reply, "error idle") {
		t.Fatalf("reset reply %q", reply)
	}
	if _, err := b.br.ReadString('\n'); err == nil {
		t.Fatal("session should be closed after the idle reset")
	}
	// The update accepted before the reset survives, and the timeout
	// is attributed to the peer.
	p.Sync()
	if got := eng.Lookup(0x0A000001); got != 3 {
		t.Fatalf("pre-reset update lost: got %d", got)
	}
	infos := p.PeerInfo()
	if len(infos) != 1 || infos[0].Timeouts != 1 {
		t.Fatalf("peer info %+v, want 1 timeout", infos)
	}
}

// TestMaxLineResets: a line past the bound is a counted reset, not an
// allocation.
func TestMaxLineResets(t *testing.T) {
	eng := testEngine(t, 4)
	p := New(eng, Options{})
	defer p.Close()
	s, err := ServeOptions(p, "127.0.0.1:0", ServerOptions{MaxLine: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, br := dialSession(t, s)
	fmt.Fprintf(c, "announce 10.0.0.0/8 3 %s\n", strings.Repeat("x", 200))
	reply, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reply, "line exceeds 64 bytes") {
		t.Fatalf("reply %q", reply)
	}
	if _, err := br.ReadString('\n'); err == nil {
		t.Fatal("session should be closed after the line-bound reset")
	}
	if s.SessionErrors() != 1 {
		t.Fatalf("session errors = %d", s.SessionErrors())
	}
}

// TestTornTailDiscarded is the convergence-critical hardening rule: a
// final line without its newline must be discarded, never parsed —
// "announce 10.1.0.0/16 255" torn to "announce 10.1.0.0/16 2" parses
// fine with the wrong label, and only the discard keeps the accepted
// cursor honest for seq resume.
func TestTornTailDiscarded(t *testing.T) {
	eng := testEngine(t, 4)
	p := New(eng, Options{})
	defer p.Close()
	s, err := Serve(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, b := helloPeer(t, s, "G", false)
	fmt.Fprintf(c, "announce 10.0.0.0/8 3\nannounce 10.1.0.0/16 2") // torn: no final newline
	c.(*net.TCPConn).CloseWrite()
	// Wait for the session to tear down, then inspect.
	deadline := time.Now().Add(5 * time.Second)
	for {
		infos := p.PeerInfo()
		if len(infos) == 1 && !infos[0].Up {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never tore down")
		}
		time.Sleep(2 * time.Millisecond)
	}
	_ = b
	p.Sync()
	if got := eng.Lookup(0x0A010001); got != 3 {
		t.Fatalf("torn line was applied: 10.1.0.1 -> %d, want 3 (covering /8)", got)
	}
	infos := p.PeerInfo()
	if infos[0].Seq != 1 {
		t.Fatalf("torn line advanced the accepted cursor: seq = %d, want 1", infos[0].Seq)
	}
	if infos[0].Resets != 1 {
		t.Fatalf("torn tail not counted as a reset: %+v", infos[0])
	}
}

// TestOverloadShed: a peer whose backlog outruns the flusher past its
// budget is reset with a counted shed, and the updates accepted
// before the shed still land.
func TestOverloadShed(t *testing.T) {
	eng := testEngine(t, 4)
	// Publishing is parked (an hour-long MinInterval), so nothing
	// settles the backlog until a barrier: the peer must trip the
	// budget.
	p := New(eng, Options{MinInterval: time.Hour, MaxStaleness: time.Hour, PeerBudget: 64})
	defer p.Close()
	s, err := Serve(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, b := helloPeer(t, s, "H", false)
	for i := 0; i < 1000; i++ {
		if _, err := fmt.Fprintf(c, "announce %d.%d.0.0/16 3\n", 10+i/256, i%256); err != nil {
			break // server already shed us mid-burst
		}
	}
	reply, err := b.br.ReadString('\n')
	if err != nil {
		t.Fatalf("expected an overload reply, got %v", err)
	}
	if !strings.HasPrefix(reply, "error overload: peer H") {
		t.Fatalf("reply %q", reply)
	}
	st := p.Stats()
	if st.Shed != 1 {
		t.Fatalf("shed = %d: %+v", st.Shed, st)
	}
	// The barrier settles the backlog and applies everything accepted.
	p.Sync()
	st = p.Stats()
	if st.Received+st.Swept != st.Coalesced+st.Applied {
		t.Fatalf("conservation after shed: %+v", st)
	}
	infos := p.PeerInfo()
	if infos[0].Seq == 0 || infos[0].Seq >= 1000 {
		t.Fatalf("implausible accepted cursor after shed: %+v", infos[0])
	}
}

// TestSessionTakeover: a second session for a live peer name evicts
// the first, drains it, and continues from its cursor — the plane
// never sees two writers for one peer.
func TestSessionTakeover(t *testing.T) {
	eng := testEngine(t, 4)
	p := New(eng, Options{MaxStaleness: 2 * time.Millisecond, RestartTime: time.Hour})
	defer p.Close()
	s, err := Serve(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c1, b1 := helloPeer(t, s, "K", false)
	fmt.Fprintf(c1, "announce 10.0.0.0/8 2\n")
	b1.sync(t, c1, "one")

	c2, b2 := helloPeer(t, s, "K", false)
	if got := b2.seq(t); got != 1 {
		t.Fatalf("takeover hello seq = %d, want 1", got)
	}
	// The first session was evicted.
	if _, err := b1.br.ReadString('\n'); err == nil {
		t.Fatal("evicted session still readable")
	}
	fmt.Fprintf(c2, "announce 10.1.0.0/16 3\n")
	b2.sync(t, c2, "two")
	if got := eng.Lookup(0x0A000001); got != 2 {
		t.Fatalf("first session's route lost in takeover: got %d", got)
	}
	if got := eng.Lookup(0x0A010001); got != 3 {
		t.Fatalf("second session's route missing: got %d", got)
	}
	infos := p.PeerInfo()
	if len(infos) != 1 || infos[0].Seq != 2 {
		t.Fatalf("peer info %+v", infos)
	}
}

// TestFeederCleanRun: the feeder on a healthy network is one session,
// no resets, ending bit-identical to the offline control replay.
func TestFeederCleanRun(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tab, err := gen.SplitFIB(rng, 600, []float64{0.5, 0.3, 0.15, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	us := gen.BGPUpdates(rng, tab, 900)
	eng, err := shardfib.Build(tab, 11, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := New(eng, Options{MaxStaleness: 2 * time.Millisecond})
	defer p.Close()
	s, err := Serve(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	f, err := NewFeeder(s.Addr().String(), FeederOptions{Peer: "clean", Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(us); err != nil {
		t.Fatal(err)
	}
	fst := f.Stats()
	if fst.Attempts != 1 || fst.Resets != 0 || fst.Sent != uint64(len(us)) {
		t.Fatalf("feeder stats %+v", fst)
	}
	if f.LastReply() == "" || f.LastLag() <= 0 {
		t.Fatalf("missing convergence report: %q %v", f.LastReply(), f.LastLag())
	}
	assertFeedConverged(t, eng, tab, us)
}

// TestFeederBadFeedIsFatal: a feed the server rejects must not retry
// forever — ErrBadFeed surfaces on the first attempt.
func TestFeederBadFeedIsFatal(t *testing.T) {
	eng := testEngine(t, 4)
	p := New(eng, Options{})
	defer p.Close()
	s, err := Serve(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	f, err := NewFeeder(s.Addr().String(), FeederOptions{Peer: "bad", Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	// Label 0 is invalid on the wire (fib.NoLabel); the server's
	// parser rejects the line and resets the session.
	err = f.Run([]gen.Update{{Addr: 0x0A000000, Len: 8, NextHop: 0}})
	if err == nil {
		t.Fatal("bad feed should fail")
	}
	if f.Stats().Attempts != 1 {
		t.Fatalf("bad feed retried: %+v", f.Stats())
	}
}

// TestFeederSurvivesFaultnet: the feeder converges through a faultnet
// proxy cutting its sessions mid-line, with seq resume doing the
// dedup — the satellite fix for "fibreplay -stream dies on the first
// connection error", proven at the library layer.
func TestFeederSurvivesFaultnet(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tab, err := gen.SplitFIB(rng, 600, []float64{0.5, 0.3, 0.15, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	us := gen.BGPUpdates(rng, tab, 1200)
	eng, err := shardfib.Build(tab, 11, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := New(eng, Options{MaxStaleness: 2 * time.Millisecond})
	defer p.Close()
	s, err := Serve(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	proxy, err := faultnet.Listen(s.Addr().String(), faultnet.Options{
		Seed:     17,
		MinBytes: 400, // always past the hello, so every attempt makes progress
		MaxBytes: 4000,
		Faults:   6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	f, err := NewFeeder(proxy.Addr(), FeederOptions{
		Peer:    "flaky",
		Resume:  true,
		Pace:    200000, // paced so cuts land mid-stream, not inside one socket burst
		Backoff: time.Millisecond,
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(us); err != nil {
		t.Fatalf("feeder gave up: %v (stats %+v, proxy %+v)", err, f.Stats(), proxy.Stats())
	}
	fst, pst := f.Stats(), proxy.Stats()
	if pst.Cuts == 0 {
		t.Fatalf("proxy cut nothing — the test exercised no faults: %+v", pst)
	}
	if fst.Resets == 0 || fst.Attempts < 2 {
		t.Fatalf("feeder never reconnected: %+v", fst)
	}
	if fst.Resumed == 0 {
		t.Fatalf("no seq resume happened: %+v", fst)
	}
	st := p.Stats()
	if st.Received+st.Swept != st.Coalesced+st.Applied {
		t.Fatalf("conservation through faults: %+v", st)
	}
	assertFeedConverged(t, eng, tab, us)
}

// assertFeedConverged sweeps the engine against the offline
// final-state replay of us over tab.
func assertFeedConverged(t *testing.T, eng *shardfib.FIB, tab *fib.Table, us []gen.Update) {
	t.Helper()
	final := make(map[uint64]fib.Entry)
	for _, e := range tab.Entries {
		final[uint64(e.Addr)<<6|uint64(e.Len)] = e
	}
	for _, u := range us {
		if u.V6 {
			continue
		}
		addr := u.Addr & fib.Mask(u.Len)
		key := uint64(addr)<<6 | uint64(u.Len)
		if u.Withdraw {
			delete(final, key)
		} else {
			final[key] = fib.Entry{Addr: addr, Len: u.Len, NextHop: u.NextHop}
		}
	}
	control := fib.New()
	for _, e := range final {
		if err := control.Add(e.Addr, e.Len, e.NextHop); err != nil {
			t.Fatal(err)
		}
	}
	control.Sort()
	probes := gen.UniformAddrs(rand.New(rand.NewSource(44)), 4000)
	for _, u := range us {
		if u.V6 {
			continue
		}
		addr := u.Addr & fib.Mask(u.Len)
		probes = append(probes, addr, addr|^fib.Mask(u.Len))
	}
	for _, a := range probes {
		if got, want := eng.Lookup(a), control.LookupLinear(a); got != want {
			t.Fatalf("engine diverges from control at %08x: %d != %d", a, got, want)
		}
	}
}
