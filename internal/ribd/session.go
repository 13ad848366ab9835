package ribd

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fibcomp/internal/gen"
)

// The session wire protocol is the gen feed text format, line by
// line, plus three control verbs:
//
//	hello <name> [vrf <id>] [restart]
//	announce 10.1.0.0/16 3
//	withdraw 10.1.0.0/16
//	sync <token>
//	# comments and blank lines are ignored
//
// "hello" names the peer, enabling graceful restart (see peer.go):
// the server answers
//
//	hello <name> seq=<accepted-lifetime> restart_time=<dur> [vrf=<id>]
//
// The optional "vrf <id>" clause scopes the whole session to one
// tenant table: every subsequent announce/withdraw lands in that VRF's
// plane, the sync barrier waits on that plane, and the peer name is
// owned per VRF — tenant 3's "rrc00" and tenant 7's "rrc00" are
// different graceful-restart identities that never take each other
// over. The reply echoes the binding as a trailing vrf=<id> field
// (appended last, so VRF-unaware feeders parsing the fixed prefix keep
// working). A vrf clause on a server with no VRF resolver, or naming a
// tenant the resolver does not know, is answered with an error line
// and a session close — tenant scoping is part of the session
// identity, and a misdelivered feed must never land in another
// tenant's table.
//
// so a reconnecting feeder knows exactly how many of its updates the
// plane has accepted across all prior sessions — the resume point —
// and how long its routes survive a session loss. The "restart" form
// declares a full-RIB replay: the peer's first sync after it doubles
// as end-of-RIB and purges whatever the replay did not re-announce. A
// second session arriving for a live peer name takes the name over:
// the old session is closed and fully drained before the new one
// proceeds, so the plane never sees two writers for one peer.
//
// "sync" blocks the session until every update the plane accepted
// before it has been applied and published, then answers
//
//	synced <token> seq=<peer-updates> applied=<n> coalesced=<n> staleness_bound=<dur>
//
// — the convergence barrier fibreplay -stream uses to measure lag. A
// malformed line is answered with "error line <n>: <text>: <reason>"
// and closes the session: a desynchronized peer must reconnect and
// replay, exactly like a real BGP session reset. Hardening resets use
// the same one-line-then-close shape with distinct reasons the Feeder
// classifies: "error idle ..." (no data within the idle window),
// "error overload ..." (peer backlog exceeded its budget), and
// "error line <n>: ...: line exceeds ..." (line bound). An
// unterminated final line is discarded, never parsed: a torn write
// can truncate "announce 10.1.0.0/16 355" into a shorter line that
// still parses — with the wrong label — so only '\n'-terminated
// lines count, and the peer's accepted-seq tells it exactly where to
// resume.

// ServerOptions tunes the session layer's hardening bounds. The zero
// value is ready to use.
type ServerOptions struct {
	// IdleTimeout resets a session that delivers no data for this
	// long — a hung peer (or a dead TCP path with no traffic to
	// notice it) must not pin a goroutine forever. For a named peer
	// the reset starts the ordinary graceful-restart clock. Zero
	// means DefaultIdleTimeout; negative disables the deadline.
	IdleTimeout time.Duration
	// MaxLine bounds one feed line; a session exceeding it is reset.
	// Bounds per-session memory against a peer that streams bytes
	// with no newline. Default DefaultMaxLine.
	MaxLine int
	// VRF resolves a "hello <name> vrf <id>" clause to the tenant's
	// plane. Nil (the default) rejects every vrf clause; returning nil
	// rejects that tenant id. Sessions without the clause always feed
	// the server's default plane.
	VRF func(id uint16) *Plane
}

// Session-hardening defaults.
const (
	DefaultIdleTimeout = 2 * time.Minute
	DefaultMaxLine     = 1 << 16
)

func (o ServerOptions) withDefaults() ServerOptions {
	if o.IdleTimeout == 0 {
		o.IdleTimeout = DefaultIdleTimeout
	}
	if o.MaxLine <= 0 {
		o.MaxLine = DefaultMaxLine
	}
	return o
}

// Server accepts peer update sessions over TCP and feeds them into
// one Plane.
type Server struct {
	p    *Plane
	ln   net.Listener
	wg   sync.WaitGroup
	opts ServerOptions

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	named  map[string]*liveSession
	closed bool

	peers         atomic.Uint64 // sessions accepted (lifetime)
	sessionErrors atomic.Uint64 // sessions dropped on a malformed line
}

// liveSession is the takeover handle for the one session currently
// holding a peer name: closing c unblocks its read loop, done closes
// after its tail is flushed and its peerDown is enqueued.
type liveSession struct {
	c    net.Conn
	done chan struct{}
}

// Serve listens on a TCP address ("127.0.0.1:0" picks an ephemeral
// port) and accepts peer sessions into p with default hardening
// bounds.
func Serve(p *Plane, addr string) (*Server, error) {
	return ServeOptions(p, addr, ServerOptions{})
}

// ServeOptions is Serve with explicit session-hardening bounds.
func ServeOptions(p *Plane, addr string, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ribd: %v", err)
	}
	s := &Server{
		p:     p,
		ln:    ln,
		opts:  opts.withDefaults(),
		conns: make(map[net.Conn]struct{}),
		named: make(map[string]*liveSession),
	}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

// Addr reports the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Peers reports the number of sessions accepted over the server's
// lifetime.
func (s *Server) Peers() uint64 { return s.peers.Load() }

// SessionErrors reports how many sessions were dropped on a
// malformed feed line.
func (s *Server) SessionErrors() uint64 { return s.sessionErrors.Load() }

// Close stops accepting, closes every live session and waits for the
// handlers to finish. It does not touch the plane: callers drain it
// separately (Plane.Close), so updates already parsed are still
// applied.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) accept() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.peers.Add(1)
		s.wg.Add(1)
		go s.session(c)
	}
}

// takeover claims a peer name for conn: any session currently holding
// it is closed and fully drained first. The wait guarantees FIFO
// consistency on the ingest channel — the old session's tail flush
// and peerDown precede the new session's peerUp, so the incarnation
// bump tags exactly the new session's updates.
func (s *Server) takeover(name string, c net.Conn, done chan struct{}) {
	for {
		s.mu.Lock()
		old := s.named[name]
		if old == nil {
			s.named[name] = &liveSession{c: c, done: done}
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		old.c.Close()
		<-old.done
	}
}

// release gives the peer name back at session exit (unless a takeover
// already replaced the entry).
func (s *Server) release(name string, c net.Conn) {
	s.mu.Lock()
	if ls := s.named[name]; ls != nil && ls.c == c {
		delete(s.named, name)
	}
	s.mu.Unlock()
}

// session speaks the feed protocol with one peer.
//
// Parsed updates accumulate in a pooled buffer handed to the plane
// in bursts: when the buffer fills, when the read buffer drains (the
// end of a network burst — so a trickling peer still sees per-line
// latency), and before any sync barrier.
func (s *Server) session(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()

	pl := s.p                   // default plane until a hello vrf clause rebinds
	key := ""                   // takeover key: the peer name, scoped per VRF
	var ps *peerState           // non-nil once the peer said hello
	done := make(chan struct{}) // takeover handle; closed after the tail drains
	bp := sessionPool.Get().(*[]gen.Update)
	flush := func() {
		if len(*bp) > 0 {
			pl.enqueuePooled(bp, ps)
			bp = sessionPool.Get().(*[]gen.Update)
		}
	}
	defer func() {
		flush()
		sessionPool.Put(bp)
		if ps != nil {
			pl.peerDown(ps)
			s.release(key, c)
		}
		close(done)
	}()

	br := bufio.NewReaderSize(c, s.opts.MaxLine)
	line, seq := 0, uint64(0)
	for {
		// The deadline guards the read that blocks: with lines still
		// buffered the one set when the buffer last ran dry stands (a
		// line split across reads waits on it, a moment short of whole).
		if s.opts.IdleTimeout > 0 && br.Buffered() == 0 {
			c.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		}
		raw, err := br.ReadSlice('\n')
		if ps != nil && len(raw) > 0 {
			ps.bytes.Add(uint64(len(raw)))
		}
		if err != nil {
			switch {
			case err == bufio.ErrBufferFull:
				line++
				s.sessionErrors.Add(1)
				if ps != nil {
					ps.resets.Add(1)
				}
				fmt.Fprintf(c, "error line %d: line exceeds %d bytes\n", line, s.opts.MaxLine)
			case isTimeout(err):
				if ps != nil {
					ps.timeouts.Add(1)
				}
				c.SetReadDeadline(time.Time{})
				fmt.Fprintf(c, "error idle: no data for %s\n", s.opts.IdleTimeout)
			case err == io.EOF && len(raw) == 0:
				// Clean end of feed.
			default:
				// Connection error, or EOF inside a line — a torn
				// write. The partial line is discarded, never parsed:
				// a truncated announce can still parse, with the
				// wrong label. The peer's accepted seq marks the
				// resume point.
				if ps != nil {
					ps.resets.Add(1)
				}
			}
			return // deferred flush drains the accepted tail
		}
		line++
		// The line stays bytes in the read buffer until a branch needs
		// more: an update is parsed in place and costs no allocation;
		// the control verbs are rare and convert.
		trimmed := bytes.TrimSpace(raw)
		switch {
		case len(trimmed) == 0 || trimmed[0] == '#':
		case hasVerb(trimmed, "sync"):
			text := string(trimmed)
			token := ""
			if fields := strings.Fields(text); len(fields) > 1 {
				token = fields[1]
			}
			flush()
			pl.syncPeer(ps)
			st := pl.Stats()
			n := seq
			if ps != nil {
				n = ps.seq.Load()
			}
			fmt.Fprintf(c, "synced %s seq=%d applied=%d coalesced=%d staleness_bound=%s\n",
				token, n, st.Applied, st.Coalesced, pl.MaxStaleness())
		case hasVerb(trimmed, "hello"):
			text := string(trimmed)
			fields := strings.Fields(text)
			restart, hasVRF := false, false
			var vrfID uint16
			rest := fields[2:]
			if len(fields) < 2 {
				rest = nil
			}
			if len(rest) >= 2 && rest[0] == "vrf" {
				id, perr := strconv.ParseUint(rest[1], 10, 16)
				if perr != nil {
					s.sessionErrors.Add(1)
					fmt.Fprintf(c, "error line %d: %q: bad vrf id %q\n", line, text, rest[1])
					return
				}
				hasVRF, vrfID = true, uint16(id)
				rest = rest[2:]
			}
			switch {
			case len(fields) >= 2 && len(rest) == 1 && rest[0] == "restart":
				restart = true
			case len(fields) >= 2 && len(rest) == 0:
			default:
				s.sessionErrors.Add(1)
				fmt.Fprintf(c, "error line %d: %q: want \"hello <name> [vrf <id>] [restart]\"\n", line, text)
				return
			}
			if ps != nil {
				s.sessionErrors.Add(1)
				ps.resets.Add(1)
				fmt.Fprintf(c, "error line %d: %q: peer already named %q\n", line, text, ps.name)
				return
			}
			flush() // anything fed anonymously stays anonymous
			key = fields[1]
			suffix := ""
			if hasVRF {
				if s.opts.VRF == nil {
					s.sessionErrors.Add(1)
					fmt.Fprintf(c, "error line %d: %q: no vrf tables on this server\n", line, text)
					return
				}
				vp := s.opts.VRF(vrfID)
				if vp == nil {
					s.sessionErrors.Add(1)
					fmt.Fprintf(c, "error line %d: %q: unknown vrf %d\n", line, text, vrfID)
					return
				}
				pl = vp
				// Scope the takeover identity per tenant: the same peer
				// name in two VRFs is two independent sessions.
				key = fmt.Sprintf("vrf%d/%s", vrfID, fields[1])
				suffix = fmt.Sprintf(" vrf=%d", vrfID)
			}
			s.takeover(key, c, done)
			ps = pl.peerUp(fields[1], restart)
			fmt.Fprintf(c, "hello %s seq=%d restart_time=%s%s\n",
				ps.name, ps.seq.Load(), pl.opts.RestartTime, suffix)
		default:
			u, perr := gen.ParseUpdateBytes(trimmed)
			if perr != nil {
				s.sessionErrors.Add(1)
				if ps != nil {
					ps.resets.Add(1)
				}
				fmt.Fprintf(c, "error line %d: %q: %v\n", line, trimmed, perr)
				return
			}
			if ps != nil && ps.backlog.Load() >= int64(pl.opts.PeerBudget) {
				// The ingest queue's blocking send is the ordinary
				// backpressure; the budget is the hard stop behind it
				// for a peer whose accepted-but-unpublished volume
				// keeps growing anyway (flap storm faster than the
				// engine can publish). Shed the session; the update
				// on this line is not accepted (not seq-counted), so
				// a resuming feeder replays from exactly here.
				pl.shed.Add(1)
				ps.resets.Add(1)
				fmt.Fprintf(c, "error overload: peer %s backlog %d exceeds budget %d\n",
					ps.name, ps.backlog.Load(), pl.opts.PeerBudget)
				return
			}
			seq++
			if ps != nil {
				ps.seq.Add(1)
			}
			*bp = append(*bp, u)
			if len(*bp) == cap(*bp) {
				flush()
			}
		}
		if br.Buffered() == 0 {
			flush()
		}
	}
}

// hasVerb reports whether line is verb alone or verb followed by a
// space or tab.
func hasVerb(line []byte, verb string) bool {
	n := len(verb)
	return len(line) >= n && string(line[:n]) == verb && (len(line) == n || line[n] == ' ' || line[n] == '\t')
}

// isTimeout reports whether a read error is the idle deadline firing.
func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// Feed streams an update feed from r into the plane — the file-fed
// twin of a TCP session, batching parsed updates into pooled bursts
// the same way sessions do (one queue handoff per sessionBatch, not
// one flusher wakeup per line). It returns the number of updates
// enqueued; a parse error names the offending line number and text.
// Feed does not wait for the updates to publish; follow with Sync for
// a convergence barrier.
func (p *Plane) Feed(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	bp := sessionPool.Get().(*[]gen.Update)
	defer func() { p.enqueuePooled(bp, nil) }()
	n, line := 0, 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		u, err := gen.ParseUpdateBytes(text)
		if err != nil {
			return n, fmt.Errorf("ribd: line %d: %q: %v", line, text, err)
		}
		*bp = append(*bp, u)
		if len(*bp) == cap(*bp) {
			p.enqueuePooled(bp, nil)
			bp = sessionPool.Get().(*[]gen.Update)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("ribd: %v", err)
	}
	return n, nil
}
