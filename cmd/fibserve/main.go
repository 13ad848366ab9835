// Command fibserve serves longest-prefix-match lookups over UDP from
// a compressed FIB. It reads a FIB in the text format, folds it into
// the sharded concurrent engine (-shards prefix DAGs, one at the
// default, serialized into one arena; lookups are lock-free) and
// answers batched lookup datagrams (4-byte big-endian addresses in,
// 4-byte labels out). When serving from a file, SIGHUP re-reads it and
// hot-swaps the FIB without dropping a single in-flight lookup.
//
// -workers N runs N parallel serve loops (default: one per CPU). On
// Linux each loop owns its own SO_REUSEPORT socket, so the kernel
// flow-hashes clients across loops and each loop drains its socket in
// recvmmsg/sendmmsg bursts; elsewhere, or with -reuseport=false, the
// loops share one socket. SIGINT/SIGTERM drain every loop's in-flight
// burst before the sockets close.
//
// -updates attaches the live route-update plane (internal/ribd): a
// TCP listener accepting "announce prefix label" / "withdraw prefix"
// feeds from concurrent peers, coalescing them and republishing as
// soon as the queue drains, so the FIB converges while serving
// (SIGHUP whole-file reload remains as the fallback). SIGINT/SIGTERM
// shut down gracefully: stop accepting peers, drain the pending update
// batch, answer the in-flight lookup, then exit.
//
// -admin exposes the telemetry endpoint over HTTP: /metrics
// (Prometheus text exposition from the internal/obs registry every
// layer registers on), /healthz, /statusz (JSON: serving topology,
// per-worker counters, update-plane stats, peers, and the publish-
// pipeline trace ring), and /debug/pprof. Instrumentation rides the
// hot paths at zero allocation; scrapes never block a serve loop.
//
// -fib6 serves IPv6 alongside IPv4 from the same UDP socket: the v6
// table is folded into its own engine of the same kind (the same
// arena, generations and pin/validate republish, a 128-bit walk), v6
// datagrams are AF-tagged on the wire while untagged v4 requests stay
// exactly the PR 1 format, the update plane accepts interleaved
// dual-stack feeds, and SIGHUP reloads both files.
//
// -vrfs serves multi-tenant VRF tables next to the default one:
// comma-separated "id=v4file[:v6file]" entries, every tenant folded
// into one shared hash-cons index per family so near-identical tenant
// tables share their common structure and their serialized arenas —
// hundreds of tenants cost little more resident memory than one, and a
// family no tenant has routes in costs one root window. VRF-tagged
// lookup datagrams (leading 0x84/0x86 byte plus a 2-byte tenant id)
// select the tenant; -query -vrf <id> scopes a client query; a ribd
// session opened with "hello <peer> vrf <id>" feeds that tenant's own
// update plane; SIGHUP re-reads every tenant's files with per-tenant
// failure isolation; /statusz and /metrics report the shared arenas'
// bytes and per-tenant rows.
//
//	fibgen -profile access(v) > t.fib
//	fibgen -6 -n 150000 > t6.fib
//	fibserve -listen 127.0.0.1:7000 -updates 127.0.0.1:7001 -shards 16 -fib6 t6.fib t.fib &
//	fibreplay -fib t.fib -synth 100000 -stream 127.0.0.1:7001 -server 127.0.0.1:7000
//	fibreplay -6 -fib t6.fib -synth 100000 -stream 127.0.0.1:7001 -server 127.0.0.1:7000
//	kill -HUP $!   # re-read t.fib and t6.fib, keep serving
//	fibserve -query 10.0.0.1 -server 127.0.0.1:7000
//	fibserve -query 2001:db8::1 -server 127.0.0.1:7000
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"fibcomp/internal/fib"
	"fibcomp/internal/ip6"
	"fibcomp/internal/lookupd"
	"fibcomp/internal/obs"
	"fibcomp/internal/ribd"
	"fibcomp/internal/shardfib"
	"fibcomp/internal/vrftab"
)

// vrfSpec is one -vrfs entry: a tenant id and its FIB files.
type vrfSpec struct {
	id uint16
	p4 string // IPv4 table file; empty serves an empty v4 table
	p6 string // IPv6 table file; empty serves an empty v6 table
}

// parseVRFSpecs parses the -vrfs value: comma-separated
// "id=v4file[:v6file]" entries ("id=:v6file" for a v6-only tenant).
func parseVRFSpecs(s string) ([]vrfSpec, error) {
	var specs []vrfSpec
	seen := make(map[uint16]bool)
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		eq := strings.IndexByte(ent, '=')
		if eq < 0 {
			return nil, fmt.Errorf("vrfs: %q: want id=v4file[:v6file]", ent)
		}
		id, err := strconv.ParseUint(ent[:eq], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("vrfs: bad tenant id %q: %v", ent[:eq], err)
		}
		if seen[uint16(id)] {
			return nil, fmt.Errorf("vrfs: duplicate tenant id %d", id)
		}
		seen[uint16(id)] = true
		sp := vrfSpec{id: uint16(id), p4: ent[eq+1:]}
		if i := strings.IndexByte(sp.p4, ':'); i >= 0 {
			sp.p4, sp.p6 = sp.p4[:i], sp.p4[i+1:]
		}
		if sp.p4 == "" && sp.p6 == "" {
			return nil, fmt.Errorf("vrfs: tenant %d names no FIB file", id)
		}
		specs = append(specs, sp)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("vrfs: no tenants in %q", s)
	}
	return specs, nil
}

// loadVRFTables reads one tenant's table files; a missing path yields
// an empty table for that family.
func loadVRFTables(sp vrfSpec) (*fib.Table, *ip6.Table, error) {
	t4 := &fib.Table{}
	if sp.p4 != "" {
		var err error
		if t4, err = readFIB(sp.p4); err != nil {
			return nil, nil, fmt.Errorf("vrf %d: %v", sp.id, err)
		}
	}
	t6 := ip6.New()
	if sp.p6 != "" {
		var err error
		if t6, err = readFIB6(sp.p6); err != nil {
			return nil, nil, fmt.Errorf("vrf %d: %v", sp.id, err)
		}
	}
	return t4, t6, nil
}

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:7000", "UDP address to serve on")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel serve loops (default: one per CPU)")
		reuse   = flag.Bool("reuseport", true, "shard serving across per-worker SO_REUSEPORT sockets where supported")
		lambda  = flag.Int("lambda", 11, fmt.Sprintf("leaf-push barrier, in [log2 shards, %d]", shardfib.MaxLambda))
		shards  = flag.Int("shards", 1, "shard count (power of two)")
		fib6    = flag.String("fib6", "", "IPv6 FIB file: serve dual-stack (AF-tagged v6 datagrams next to untagged v4)")
		lambda6 = flag.Int("lambda6", 16, fmt.Sprintf("IPv6 leaf-push barrier, in [log2 shards, %d]", shardfib.MaxLambda))
		updates = flag.String("updates", "", "TCP address for the live route-update plane (ribd)")
		stale   = flag.Duration("max-staleness", ribd.DefaultMaxStaleness, "update plane: staleness bound reported to peers (updates publish as soon as the queue drains)")
		idle    = flag.Duration("peer-idle-timeout", ribd.DefaultIdleTimeout, "update plane: reset a peer session after this long without a line (negative disables)")
		grace   = flag.Duration("restart-time", ribd.DefaultRestartTime, "update plane: retain a lost named peer's routes this long awaiting its reconnect (negative sweeps immediately)")
		budget  = flag.Int("peer-budget", ribd.DefaultPeerBudget, "update plane: shed a peer whose unflushed backlog exceeds this many updates")
		vrfs    = flag.String("vrfs", "", `multi-tenant VRF tables: comma-separated "id=v4file[:v6file]" entries sharing one hash-cons index; SIGHUP reloads each tenant's files`)
		query   = flag.String("query", "", "client mode: address to look up (IPv4 or IPv6)")
		qvrf    = flag.Int("vrf", -1, "client mode: VRF tenant id for -query (default: the untagged default table)")
		server  = flag.String("server", "127.0.0.1:7000", "client mode: server address")
		admin   = flag.String("admin", "", "HTTP admin endpoint (e.g. 127.0.0.1:6060): /metrics, /healthz, /statusz, /debug/pprof")
	)
	flag.Parse()

	if *query != "" {
		c, err := lookupd.Dial(*server)
		if err != nil {
			fatal(err)
		}
		defer c.Close()
		var (
			label   uint32
			noRoute bool
		)
		if *qvrf > 0xFFFF {
			fatal(fmt.Errorf("-vrf %d out of [0,65535]", *qvrf))
		}
		if strings.Contains(*query, ":") {
			addr, err := ip6.ParseAddr(*query)
			if err != nil {
				fatal(err)
			}
			if *qvrf >= 0 {
				label, err = c.Lookup6VRF(uint16(*qvrf), addr)
			} else {
				label, err = c.Lookup6(addr)
			}
			if err != nil {
				fatal(err)
			}
			noRoute = label == ip6.NoLabel
		} else {
			addr, err := fib.ParseAddr(*query)
			if err != nil {
				fatal(err)
			}
			if *qvrf >= 0 {
				label, err = c.LookupVRF(uint16(*qvrf), addr)
			} else {
				label, err = c.Lookup(addr)
			}
			if err != nil {
				fatal(err)
			}
			noRoute = label == fib.NoLabel
		}
		if noRoute {
			fmt.Printf("%s: no route\n", *query)
			os.Exit(2)
		}
		fmt.Printf("%s -> next-hop %d\n", *query, label)
		return
	}

	path := ""
	if flag.NArg() > 0 {
		path = flag.Arg(0)
	}
	t, err := readFIB(path)
	if err != nil {
		fatal(err)
	}

	// One engine kind whatever the shard count: a 1-shard engine serves
	// the flat λ blob byte for byte. A barrier it cannot serve exits
	// here with Build's error.
	sharded, err := shardfib.Build(t, *lambda, *shards)
	if err != nil {
		fatal(err)
	}

	// The IPv6 engine, built from its own table file. eng6 stays a nil
	// interface — not a typed nil — when v6 is unconfigured, so the
	// server's nil check answers "no route" instead of dispatching into
	// a nil engine.
	var (
		sharded6 *shardfib.FIB6
		n6       int
		eng6     lookupd.Lookuper6
	)
	if *fib6 != "" {
		tab6, err := readFIB6(*fib6)
		if err != nil {
			fatal(err)
		}
		sharded6, err = shardfib.Build6(tab6, *lambda6, *shards)
		if err != nil {
			fatal(err)
		}
		eng6 = sharded6
		n6 = tab6.N()
	}

	// The multi-tenant VRF registry: every tenant's tables fold into
	// one shared hash-cons index, and VRF-tagged datagrams resolve
	// against their own tenant through the registry's lock-free map.
	var (
		vreg     *vrftab.Registry
		vspecs   []vrfSpec
		vcounts  map[uint16][2]int // live prefix counts per tenant, for statusz
		vcountMu sync.Mutex
	)
	if *vrfs != "" {
		vspecs, err = parseVRFSpecs(*vrfs)
		if err != nil {
			fatal(err)
		}
		vreg = vrftab.New(*lambda, *lambda6, *shards)
		vcounts = make(map[uint16][2]int, len(vspecs))
		for _, sp := range vspecs {
			t4, t6, err := loadVRFTables(sp)
			if err != nil {
				fatal(err)
			}
			if _, err := vreg.Add(sp.id, t4, t6); err != nil {
				fatal(err)
			}
			vcounts[sp.id] = [2]int{t4.N(), t6.N()}
		}
	}

	var vrfOpt lookupd.VRFResolver
	if vreg != nil {
		vrfOpt = vreg
	}
	s, err := lookupd.ListenOptions(*listen, sharded, eng6, lookupd.Options{
		Workers:   *workers,
		ReusePort: *reuse,
		VRFs:      vrfOpt,
	})
	if err != nil {
		fatal(err)
	}
	// The live route-update plane: TCP peer sessions feeding the
	// coalescing queue and flush-on-drain republisher over the
	// sharded engine.
	var (
		plane     *ribd.Plane
		upd       *ribd.Server
		vrfPlanes map[uint16]*ribd.Plane
	)
	if *updates != "" {
		popts := ribd.Options{
			MaxStaleness: *stale,
			RestartTime:  *grace,
			PeerBudget:   *budget,
		}
		plane = ribd.NewDual(sharded, sharded6, popts)
		sopts := ribd.ServerOptions{IdleTimeout: *idle}
		if vreg != nil {
			// One update plane per tenant, resolved by the session's
			// "hello ... vrf <id>" clause; each coalesces and paces its
			// own tenant's publishes independently.
			vrfPlanes = make(map[uint16]*ribd.Plane, len(vspecs))
			for _, sp := range vspecs {
				tn, ok := vreg.Tenant(sp.id)
				if !ok {
					fatal(fmt.Errorf("vrf %d vanished before plane setup", sp.id))
				}
				vrfPlanes[sp.id] = ribd.NewDual(tn.V4, tn.V6, popts)
			}
			sopts.VRF = func(id uint16) *ribd.Plane { return vrfPlanes[id] }
		}
		upd, err = ribd.ServeOptions(plane, *updates, sopts)
		if err != nil {
			fatal(err)
		}
	}

	// One registry for every layer's telemetry, one snapshot for every
	// operator surface. The instruments ride the engines' publish path
	// at zero allocation; registration itself adds no hot-path cost.
	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)
	ins := &shardfib.Instruments{PublishSeconds: obs.NewHistogram(1e-9), Trace: obs.NewTraceRing(256)}
	sharded.SetInstruments(ins)
	if sharded6 != nil {
		sharded6.SetInstruments(ins)
	}
	shardfib.RegisterMetrics(reg, ins, sharded, sharded6)
	if plane != nil {
		plane.RegisterMetrics(reg)
	}
	if vreg != nil {
		vreg.RegisterMetrics(reg)
	}

	// The banner names the real serving topology: per-worker reuseport
	// sockets when the platform granted them, the shared-socket
	// fallback when it didn't.
	sockets := "shared socket"
	if s.ShardedSockets() {
		sockets = "reuseport sockets"
	}
	st := &status{
		srv: s, plane: plane, upd: upd, ins: ins, reg: reg,
		prefixes: t.N(), shards: *shards, sockets: sockets, sharded: sharded,
		grace: grace.String(), idle: idle.String(),
		vreg: vreg, vrfCounts: func() map[uint16][2]int {
			vcountMu.Lock()
			defer vcountMu.Unlock()
			out := make(map[uint16][2]int, len(vcounts))
			for k, v := range vcounts {
				out[k] = v
			}
			return out
		},
	}
	st.families = "v4"
	if sharded6 != nil {
		st.sharded6, st.prefixes6, st.lambda6, st.families = sharded6, n6, *lambda6, "dual-stack"
	}
	if *admin != "" {
		if err := startAdmin(*admin, st); err != nil {
			fatal(err)
		}
	}
	st.printBanner()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for got := range sig {
		if got != syscall.SIGHUP {
			break
		}
		// Hot reload: re-read the FIB and swap it under live traffic.
		if path == "" {
			fmt.Fprintln(os.Stderr, "fibserve: SIGHUP ignored (serving from stdin)")
			continue
		}
		t, err := readFIB(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fibserve: reload: %v (keeping old FIB)\n", err)
			continue
		}
		if err := sharded.Reload(t); err != nil {
			fmt.Fprintf(os.Stderr, "fibserve: reload: %v (keeping old FIB)\n", err)
			continue
		}
		fmt.Printf("fibserve: reloaded %d prefixes from %s\n", t.N(), path)
		// Per-tenant reload: each tenant's files are re-read and swapped
		// independently, so one tenant's bad file never blocks another's
		// reload (or the default table's, above).
		for _, sp := range vspecs {
			t4, t6, err := loadVRFTables(sp)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fibserve: reload: %v (keeping old tables)\n", err)
				continue
			}
			if err := vreg.Reload(sp.id, t4, t6); err != nil {
				fmt.Fprintf(os.Stderr, "fibserve: reload vrf %d: %v (keeping old tables)\n", sp.id, err)
				continue
			}
			vcountMu.Lock()
			vcounts[sp.id] = [2]int{t4.N(), t6.N()}
			vcountMu.Unlock()
			fmt.Printf("fibserve: reloaded vrf %d: %d prefixes, %d IPv6 prefixes\n", sp.id, t4.N(), t6.N())
		}
		if sharded6 != nil {
			tab6, err := readFIB6(*fib6)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fibserve: reload: %v (keeping old IPv6 FIB)\n", err)
				continue
			}
			if err := sharded6.Reload(tab6); err != nil {
				fmt.Fprintf(os.Stderr, "fibserve: reload: %v (keeping old IPv6 FIB)\n", err)
				continue
			}
			fmt.Printf("fibserve: reloaded %d IPv6 prefixes from %s\n", tab6.N(), *fib6)
		}
	}
	// Graceful shutdown (SIGINT/SIGTERM): stop accepting update
	// peers, drain and publish the pending coalesced batch, then let
	// the in-flight lookup datagram complete before the socket
	// closes.
	if upd != nil {
		upd.Close()
	}
	for _, vp := range vrfPlanes {
		vp.Close()
	}
	var (
		peersSeen uint64
		pstats    ribd.Stats
		infos     []ribd.PeerInfo
	)
	if plane != nil {
		// Snapshot the graceful-restart registry before Close tears
		// down the flusher that maintains it.
		infos = plane.PeerInfo()
		plane.Close()
		pstats = plane.Stats()
		peersSeen = upd.Peers()
	}
	s.Shutdown()
	st.printDrainReport(peersSeen, pstats, infos)
}

func readFIB(path string) (*fib.Table, error) {
	if path == "" {
		return fib.Read(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return fib.Read(f)
}

func readFIB6(path string) (*ip6.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ip6.Read(f)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "fibserve: %v\n", err)
	os.Exit(1)
}
