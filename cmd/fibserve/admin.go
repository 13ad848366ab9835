package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"

	"fibcomp/internal/lookupd"
	"fibcomp/internal/obs"
	"fibcomp/internal/ribd"
	"fibcomp/internal/shardfib"
	"fibcomp/internal/vrftab"
)

// status is the one telemetry view every operator surface renders
// from: the startup banner, the /statusz JSON document, and the
// shutdown drain report all read the same registry-backed snapshot,
// so they cannot drift apart. The static fields describe the serving
// topology fixed at startup; everything live is read through the
// handles at render time.
type status struct {
	srv   *lookupd.Server
	plane *ribd.Plane // nil without -updates
	upd   *ribd.Server
	ins   *shardfib.Instruments
	reg   *obs.Registry

	// IPv4 serving topology, as the banner reports it.
	sharded  *shardfib.FIB
	prefixes int
	shards   int
	sockets  string

	// IPv6: sharded6 is nil unless -fib6 configured it.
	sharded6  *shardfib.FIB6
	prefixes6 int
	lambda6   int

	// Update plane configuration, when -updates enabled it.
	families string
	grace    string
	idle     string

	// Multi-tenant VRF serving, when -vrfs configured it. vrfCounts
	// snapshots the per-tenant prefix counts (maintained across SIGHUP
	// reloads under the caller's lock).
	vreg      *vrftab.Registry
	vrfCounts func() map[uint16][2]int
}

// servedForm names what every engine serves, in the banner and in
// /statusz: the size beside it is the resident arena plus the shards'
// root windows — what lookups walk and what churn may grow by half.
const servedForm = "v1, one arena"

// printBanner emits the startup lines. The formats are pinned: CI and
// operator scripts match them verbatim.
func (st *status) printBanner() {
	fmt.Printf("fibserve: %d prefixes compressed to %.1f KB (%d shard(s), blob %s), serving on %s (%d worker(s), %s)\n",
		st.prefixes, float64(st.sharded.SizeBytes())/1024, st.shards, servedForm, st.srv.Addr(), st.srv.Workers(), st.sockets)
	if st.sharded6 != nil {
		fmt.Printf("fibserve: dual-stack: %d IPv6 prefixes compressed to %.1f KB (λ6=%d, blob %s)\n",
			st.prefixes6, float64(st.sharded6.SizeBytes())/1024, st.lambda6, servedForm)
	}
	if st.vreg != nil {
		fmt.Printf("fibserve: %d VRF tenants sharing one hash-cons index per family (shared arenas %.1f KB)\n",
			st.vreg.Len(), float64(st.vreg.SharedBytes())/1024)
	}
	if st.upd != nil {
		fmt.Printf("fibserve: route-update plane on %s (%s, staleness bound %s, restart time %s, idle timeout %s)\n",
			st.upd.Addr(), st.families, st.plane.MaxStaleness(), st.grace, st.idle)
	}
}

// printDrainReport emits the shutdown lines after the update plane
// drained and the serve loops stopped. Every pre-existing line keeps
// its exact format; the per-worker rows are appended when the server
// ran more than one loop.
func (st *status) printDrainReport(peersSeen uint64, pstats ribd.Stats, infos []ribd.PeerInfo) {
	if st.plane != nil {
		fmt.Printf("fibserve: update plane: %d peers, %d received, %d coalesced, %d applied, %d flushes, %d swept, %d shed\n",
			peersSeen, pstats.Received, pstats.Coalesced, pstats.Applied, pstats.Flushes, pstats.Swept, pstats.Shed)
		for _, pi := range infos {
			state := "down"
			if pi.Up {
				state = "up"
			}
			fmt.Printf("fibserve: peer %s: %s, %d routes, seq %d, %d bytes, %d resets (%d idle)\n",
				pi.Name, state, pi.Routes, pi.Seq, pi.Bytes, pi.Resets, pi.Timeouts)
		}
	}
	fmt.Printf("fibserve: %d requests, %d lookups, %d errors\n",
		st.srv.Requests(), st.srv.Lookups(), st.srv.Errors())
	if ws := st.srv.WorkerStats(); len(ws) > 1 {
		for _, w := range ws {
			fmt.Printf("fibserve: worker %d: %d requests, %d lookups, %d errors, %d drops\n",
				w.Worker, w.Requests, w.Lookups, w.Errors, w.Drops)
		}
	}
}

// statuszPayload is the /statusz JSON document.
type statuszPayload struct {
	Serving struct {
		Addr      string `json:"addr"`
		Workers   int    `json:"workers"`
		Sockets   string `json:"sockets"`
		Prefixes  int    `json:"prefixes"`
		SizeBytes int    `json:"size_bytes"`
		Shards    int    `json:"shards"`
		Blob      string `json:"blob"`
	} `json:"serving"`
	Arena    arenaStatus          `json:"arena"`
	Serving6 *serving6Status      `json:"serving6,omitempty"`
	Workers  []lookupd.WorkerStat `json:"workers"`
	Plane    *struct {
		ribd.Stats
		Pending int `json:"pending"`
	} `json:"plane,omitempty"`
	Peers []ribd.PeerInfo  `json:"peers,omitempty"`
	VRFs  *vrfStatus       `json:"vrfs,omitempty"`
	Trace []obs.TraceEvent `json:"trace"`
}

// serving6Status is the IPv6 engine's section of /statusz.
type serving6Status struct {
	Prefixes  int         `json:"prefixes"`
	SizeBytes int         `json:"size_bytes"`
	Lambda    int         `json:"lambda"`
	Blob      string      `json:"blob"`
	Arena     arenaStatus `json:"arena"`
}

// arenaStatus is the live state of an engine's own arena: what it
// holds against what a fresh build of the current table would, the
// ratio a compaction keeps under 1.5, and the generation serving now.
type arenaStatus struct {
	ResidentBytes int     `json:"resident_bytes"`
	LiveBytes     int     `json:"live_bytes"`
	Ratio         float64 `json:"resident_over_live"`
	Generation    uint64  `json:"generation"`
}

func arenaOf(resident, live int, compactions uint64) arenaStatus {
	return arenaStatus{resident, live, float64(resident) / float64(live), compactions + 1}
}

// vrfStatus is the multi-tenant section of /statusz: the shared-index
// economics plus one row per tenant.
type vrfStatus struct {
	Tenants     int      `json:"tenants"`
	SharedBytes int      `json:"shared_bytes"`
	Rows        []vrfRow `json:"rows"`
}

type vrfRow struct {
	ID         uint16 `json:"id"`
	Prefixes   int    `json:"prefixes"`
	Prefixes6  int    `json:"prefixes6"`
	SizeBytes  int    `json:"size_bytes"`  // published root windows before interning (resident: shared_bytes)
	SizeBytes6 int    `json:"size_bytes6"` // the same, IPv6
}

func (st *status) statusz() statuszPayload {
	var p statuszPayload
	p.Serving.Addr = st.srv.Addr().String()
	p.Serving.Workers = st.srv.Workers()
	p.Serving.Sockets = st.sockets
	p.Serving.Prefixes = st.prefixes
	p.Serving.SizeBytes = st.sharded.SizeBytes()
	p.Serving.Shards = st.shards
	p.Serving.Blob = servedForm
	p.Arena = arenaOf(st.sharded.Arena())
	if f6 := st.sharded6; f6 != nil {
		p.Serving6 = &serving6Status{st.prefixes6, f6.SizeBytes(), st.lambda6, servedForm, arenaOf(f6.Arena())}
	}
	p.Workers = st.srv.WorkerStats()
	if st.plane != nil {
		p.Plane = &struct {
			ribd.Stats
			Pending int `json:"pending"`
		}{st.plane.Stats(), st.plane.Pending()}
		p.Peers = st.plane.PeerInfo()
	}
	if st.vreg != nil {
		counts := st.vrfCounts()
		vs := &vrfStatus{
			Tenants:     st.vreg.Len(),
			SharedBytes: st.vreg.SharedBytes(),
		}
		for _, tn := range st.vreg.Tenants() {
			c := counts[tn.ID]
			vs.Rows = append(vs.Rows, vrfRow{
				ID: tn.ID, Prefixes: c[0], Prefixes6: c[1],
				SizeBytes: tn.V4.SizeBytes(), SizeBytes6: tn.V6.SizeBytes(),
			})
		}
		p.VRFs = vs
	}
	p.Trace = st.ins.Trace.Snapshot()
	return p
}

// adminMux builds the admin HTTP handler: Prometheus exposition on
// /metrics, a liveness probe on /healthz, the full JSON status
// document (including the publish-pipeline trace ring) on /statusz,
// and the pprof handlers under /debug/pprof/.
func adminMux(st *status) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		st.reg.WriteProm(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(st.statusz())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// startAdmin binds the admin listener synchronously — a bad address
// fails startup, and the port is live before the banner prints, so
// scripts can curl it the moment the process reports serving — then
// serves the mux in the background.
func startAdmin(addr string, st *status) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	go func() {
		if err := http.Serve(ln, adminMux(st)); err != nil {
			fmt.Fprintf(os.Stderr, "fibserve: admin: %v\n", err)
		}
	}()
	return nil
}
