package ribd

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"fibcomp/internal/fib"
	"fibcomp/internal/gen"
	"fibcomp/internal/shardfib"
)

// testEngine builds a default-route-only engine, so a test announce
// of any prefix deterministically owns the addresses under it (a
// random table would shadow it with longer prefixes).
func testEngine(t *testing.T, shards int) *shardfib.FIB {
	t.Helper()
	f, err := shardfib.Build(fib.MustParse("0.0.0.0/0 1"), 11, shards)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCoalescing pins the queue semantics: a burst of redundant churn
// on one prefix costs one DAG mutation, and the conservation law
// Received = Coalesced + Applied holds at the barrier.
func TestCoalescing(t *testing.T) {
	eng := testEngine(t, 4)
	// A long MinInterval keeps the flusher from publishing between the
	// enqueues, so the whole burst lands in one batch.
	p := New(eng, Options{MinInterval: time.Hour, MaxStaleness: time.Hour})
	defer p.Close()

	p.Enqueue(gen.Update{Addr: 0x0A000000, Len: 8, NextHop: 2})
	p.Enqueue(gen.Update{Addr: 0x0A000000, Len: 8, NextHop: 3})
	p.Enqueue(gen.Update{Addr: 0x0A000000, Len: 8, NextHop: 4}) // repeated announces squash
	p.Enqueue(gen.Update{Addr: 0x14000000, Len: 8, NextHop: 2})
	p.Enqueue(gen.Update{Addr: 0x14000000, Len: 8, Withdraw: true}) // announce-then-withdraw squashes
	p.Sync()

	st := p.Stats()
	if st.Received != 5 || st.Coalesced != 3 || st.Applied != 2 {
		t.Fatalf("stats = %+v, want received 5, coalesced 3, applied 2", st)
	}
	if st.Received != st.Coalesced+st.Applied {
		t.Fatalf("conservation violated: %+v", st)
	}
	if got := eng.Lookup(0x0A000001); got != 4 {
		t.Fatalf("10.0.0.1 -> %d, want 4 (last announce wins)", got)
	}
	if st.Flushes != 1 {
		t.Fatalf("flushes = %d, want exactly 1 (the barrier)", st.Flushes)
	}
}

// TestIdlePublishesImmediately: with no churn, a single update is
// visible without waiting for a timer anywhere near MaxStaleness.
func TestIdlePublishesImmediately(t *testing.T) {
	eng := testEngine(t, 4)
	p := New(eng, Options{MaxStaleness: time.Hour})
	defer p.Close()
	start := time.Now()
	p.Enqueue(gen.Update{Addr: 0x0A000000, Len: 8, NextHop: 3})
	for eng.Lookup(0x0A000001) != 3 {
		if time.Since(start) > 5*time.Second {
			t.Fatal("update not visible after 5s on an idle plane")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSecondBurstNotHeld: a burst that follows a large flush is
// published as soon as the queue drains, not held for a wait scaled
// by the previous batch's size.
func TestSecondBurstNotHeld(t *testing.T) {
	eng := testEngine(t, 4)
	p := New(eng, Options{MaxStaleness: time.Hour})
	defer p.Close()
	const n = 256
	for _, label := range []uint32{2, 3} {
		burst := make([]gen.Update, n)
		for i := range burst {
			burst[i] = gen.Update{Addr: uint32(i) << 16, Len: 16, NextHop: label}
		}
		start := time.Now()
		p.EnqueueBatch(burst)
		for i := 0; i < n; i++ {
			for eng.Lookup(uint32(i)<<16|1) != label {
				if time.Since(start) > 5*time.Second {
					t.Fatalf("burst with label %d not visible after 5s", label)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// TestRejected: invalid updates are dropped at the door and counted.
func TestRejected(t *testing.T) {
	eng := testEngine(t, 4)
	p := New(eng, Options{})
	defer p.Close()
	p.Enqueue(gen.Update{Addr: 0, Len: 33, NextHop: 1})
	p.Enqueue(gen.Update{Addr: 0, Len: 8, NextHop: 0})
	p.Enqueue(gen.Update{Addr: 0, Len: 8, NextHop: 999})
	p.Sync()
	st := p.Stats()
	if st.Rejected != 3 || st.Received != 0 {
		t.Fatalf("stats = %+v, want 3 rejected, 0 received", st)
	}
}

// TestCloseDrains: updates accepted before Close are applied by it.
func TestCloseDrains(t *testing.T) {
	eng := testEngine(t, 4)
	p := New(eng, Options{MinInterval: time.Hour, MaxStaleness: time.Hour})
	for i := 0; i < 64; i++ {
		p.Enqueue(gen.Update{Addr: uint32(i) << 16, Len: 16, NextHop: uint32(1 + i%4)})
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Applied != 64 {
		t.Fatalf("applied = %d after Close, want 64", st.Applied)
	}
	if got := eng.Lookup(63 << 16); got != uint32(1+63%4) {
		t.Fatalf("lookup after Close drain: got %d", got)
	}
}

// TestFeedReportsBadLine: the file-fed path locates a parse error by
// line number and text.
func TestFeedReportsBadLine(t *testing.T) {
	eng := testEngine(t, 4)
	p := New(eng, Options{})
	defer p.Close()
	feed := "# header\nannounce 10.0.0.0/8 3\n\nannounce bogus 1\n"
	n, err := p.Feed(strings.NewReader(feed))
	if err == nil {
		t.Fatal("Feed should fail on the bogus line")
	}
	if !strings.Contains(err.Error(), "line 4") || !strings.Contains(err.Error(), `"announce bogus 1"`) {
		t.Fatalf("Feed error %q does not locate the bad line", err)
	}
	if n != 1 {
		t.Fatalf("Feed enqueued %d updates before the error, want 1", n)
	}
}

// dialSession connects a test peer to a session server.
func dialSession(t *testing.T, s *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, bufio.NewReader(c)
}

// TestSessionProtocol drives one TCP peer end to end: updates apply,
// sync replies carry the peer sequence and the staleness bound.
func TestSessionProtocol(t *testing.T) {
	eng := testEngine(t, 4)
	p := New(eng, Options{MaxStaleness: 25 * time.Millisecond})
	defer p.Close()
	s, err := Serve(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, br := dialSession(t, s)
	fmt.Fprintf(c, "# a test peer\nannounce 10.0.0.0/8 3\nwithdraw 10.0.0.0/8\nannounce 10.1.0.0/16 2\nsync tok1\n")
	reply, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	want := "synced tok1 seq=3 "
	if !strings.HasPrefix(reply, want) {
		t.Fatalf("sync reply %q, want prefix %q", reply, want)
	}
	if !strings.Contains(reply, "staleness_bound=25ms") {
		t.Fatalf("sync reply %q missing the staleness bound", reply)
	}
	if got := eng.Lookup(0x0A010001); got != 2 {
		t.Fatalf("10.1.0.1 -> %d, want 2 after sync", got)
	}
	if s.Peers() != 1 {
		t.Fatalf("peers = %d, want 1", s.Peers())
	}
}

// TestSessionErrorDropsPeer: a malformed line is answered with its
// line number and text, and the session is closed; updates before the
// bad line still count.
func TestSessionErrorDropsPeer(t *testing.T) {
	eng := testEngine(t, 4)
	p := New(eng, Options{})
	defer p.Close()
	s, err := Serve(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, br := dialSession(t, s)
	fmt.Fprintf(c, "announce 10.0.0.0/8 3\nannounce 10.0.0.0/8 totally-not-a-label\n")
	reply, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reply, "error line 2") || !strings.Contains(reply, "totally-not-a-label") {
		t.Fatalf("error reply %q does not locate the bad line", reply)
	}
	if _, err := br.ReadString('\n'); err == nil {
		t.Fatal("session should be closed after a protocol error")
	}
	if s.SessionErrors() != 1 {
		t.Fatalf("session errors = %d, want 1", s.SessionErrors())
	}
	p.Sync()
	if got := eng.Lookup(0x0A000001); got != 3 {
		t.Fatalf("update before the bad line was lost: 10.0.0.1 -> %d, want 3", got)
	}
}

// TestPacerBoundsStaleness: under continuous churn the plane batches —
// updates that arrive during a flush or its MinInterval wait become the
// next batch, so there are fewer flushes than updates — yet the last
// update is published within MinInterval plus one flush of the feed
// stopping, inside the staleness bound.
func TestPacerBoundsStaleness(t *testing.T) {
	eng := testEngine(t, 4)
	const bound = 10 * time.Millisecond
	p := New(eng, Options{MaxStaleness: bound, MinInterval: time.Millisecond})
	defer p.Close()
	const n = 2000
	for i := 0; i < n; i++ {
		p.Enqueue(gen.Update{Addr: uint32(i%256) << 16, Len: 16, NextHop: uint32(1 + i%4)})
	}
	// The final update must become visible within the bound plus one
	// flush duration without any barrier — generous factor for CI.
	deadline := time.Now().Add(20 * bound)
	for eng.Lookup(uint32((n-1)%256)<<16) != uint32(1+(n-1)%4) {
		if time.Now().After(deadline) {
			t.Fatalf("staleness bound violated: last update not visible after %v", 20*bound)
		}
		time.Sleep(time.Millisecond)
	}
	st := p.Stats()
	if st.Flushes == 0 || st.Flushes > st.Applied {
		t.Fatalf("implausible pacing: %+v", st)
	}
	if st.Coalesced == 0 {
		t.Fatalf("churn on 256 prefixes should coalesce: %+v", st)
	}
}
