package main

import "time"

// metric is one row of BENCHMARK.json; the smoke test asserts the file
// and these tables agree.
type metric struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the server sees. Every workload
// emits every one, from the one window the workload is about: an
// operation is an address looked up or, on v4-feed, a route update
// applied and synced. The timed ones are scaled to the nominal speed of
// the server's CPU (see yard.go; of a convergence lag only the processing
// part); the per-layer raw.* metrics are the same numbers unscaled.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_mops", "Mops", "higher", 0.25},
	{"srv_cpu_ns_per_op", "ns", "lower", 0.25},
	{"wire_rtt_p50_us", "us", "lower", 0.25},
	{"conv_lag_p50_ms", "ms", "lower", 0.25},
	{"fib_bytes", "B", "lower", 0.20},
	{"rss_peak_mb", "MB", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run; a layer is a
// package. A layer that is not on a workload's path reports 0 there.
var perLayer = []metric{
	// lookupd: sockets, framing, stats.
	{name: "lookupd.stub_rtt_us_b256", unit: "us", better: "lower"},
	{name: "lookupd.stub_rtt_us_b1", unit: "us", better: "lower"},
	{name: "lookupd.self_us", unit: "us", better: "lower"},
	{name: "lookupd.burst_mean", unit: "count", better: "higher"},
	{name: "lookupd.svc_us_per_burst", unit: "us", better: "lower"},
	{name: "lookupd.drops", unit: "count", better: "lower"},
	{name: "lookupd.errors", unit: "count", better: "lower"},
	// shardfib, read side.
	{name: "shardfib.batch_ns_per_lookup", unit: "ns", better: "lower"},
	{name: "shardfib.view_ns_per_lookup", unit: "ns", better: "lower"},
	{name: "shardfib.pin_ns", unit: "ns", better: "lower"},
	{name: "shardfib.batch6_ns_per_lookup", unit: "ns", better: "lower"},
	{name: "shardfib.pin_retries", unit: "count", better: "lower"},
	// walkers.
	{name: "pdag.lanes_ns_per_lookup", unit: "ns", better: "lower"},
	{name: "ip6.lanes_ns_per_lookup", unit: "ns", better: "lower"},
	// shardfib, write side.
	{name: "shardfib.apply_batch_us_per_burst", unit: "us", better: "lower"},
	{name: "shardfib.apply_batch6_us_per_burst", unit: "us", better: "lower"},
	{name: "shardfib.set_us", unit: "us", better: "lower"},
	{name: "shardfib.publish_ms_mean", unit: "ms", better: "lower"},
	{name: "shardfib.publishes_per_s", unit: "1/s", better: "lower"},
	// pdag / ip6, write side.
	{name: "pdag.set_ns", unit: "ns", better: "lower"},
	{name: "pdag.serialize_us", unit: "us", better: "lower"},
	{name: "ip6.set_ns", unit: "ns", better: "lower"},
	{name: "ip6.serialize_us", unit: "us", better: "lower"},
	// ribd.
	{name: "ribd.enqueue_sync_us_per_burst", unit: "us", better: "lower"},
	{name: "ribd.session_us_per_burst", unit: "us", better: "lower"},
	{name: "ribd.coalesce_ratio", unit: "ratio", better: "higher"},
	{name: "ribd.mutated_ratio", unit: "ratio", better: "higher"},
	{name: "ribd.flush_ms_mean", unit: "ms", better: "lower"},
	{name: "ribd.staleness_ms_mean", unit: "ms", better: "lower"},
	{name: "ribd.shed", unit: "count", better: "lower"},
	{name: "ribd.rejected", unit: "count", better: "lower"},
	// gen / fib: parse and build, the terms of setup_s.
	{name: "gen.parse_ns_per_line", unit: "ns", better: "lower"},
	{name: "fib.read_ms", unit: "ms", better: "lower"},
	{name: "shardfib.build_ms", unit: "ms", better: "lower"},
	{name: "shardfib.build6_ms", unit: "ms", better: "lower"},
	// vrftab.
	{name: "vrftab.resolve_ns", unit: "ns", better: "lower"},
	{name: "vrftab.resolve_batch_ns_per_lookup", unit: "ns", better: "lower"},
	{name: "vrftab.add_ms_per_tenant", unit: "ms", better: "lower"},
	{name: "vrftab.shared_bytes", unit: "B", better: "lower"},
	{name: "vrftab.unique_bytes", unit: "B", better: "lower"},
	// what the table grew to once the run's feed was applied (fib_bytes
	// is taken before any of it).
	{name: "fib.bytes_after_feed", unit: "B", better: "lower"},
	// obs and the harness itself.
	{name: "obs.observe_ns", unit: "ns", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "gen.cpu_util", unit: "ratio", better: "lower"},
	{name: "srv.cpu_util", unit: "ratio", better: "higher"},
	{name: "gen.late_ms_p99", unit: "ms", better: "lower"},
	// the host, and the end-to-end numbers before they were scaled by it.
	{name: "host.speed", unit: "ratio", better: "higher"},
	{name: "raw.setup_s", unit: "s", better: "lower"},
	{name: "raw.throughput_mops", unit: "Mops", better: "higher"},
	{name: "raw.srv_cpu_ns_per_op", unit: "ns", better: "lower"},
	{name: "raw.wire_rtt_p50_us", unit: "us", better: "lower"},
	{name: "raw.conv_lag_p50_ms", unit: "ms", better: "lower"},
	// tails: on a shared host a recurring stall is sometimes more,
	// sometimes less than 1 % or 10 % of the samples, so these sit on a
	// cliff; they are recorded here and not bounded.
	{name: "wire.rtt_p90_us", unit: "us", better: "lower"},
	{name: "wire.rtt_p99_us", unit: "us", better: "lower"},
	{name: "feed.conv_lag_p90_ms", unit: "ms", better: "lower"},
	{name: "feed.sync_lag_p50_ms", unit: "ms", better: "lower"},
	{name: "wire.unanswered", unit: "count", better: "lower"},
	{name: "feed.wrapped", unit: "count", better: "lower"},
}

// spec is one workload: what the server holds, what the lookup socket
// carries, and what the ribd session carries beside it.
type spec struct {
	name string
	why  string

	v6      bool // lookup keys and feed are IPv6 (server is dual-stack)
	tenants int  // VRF tenants at scale 1; 0 serves only the default table
	batch   int  // addresses per lookup datagram
	window  int  // lookup datagrams in flight, closed loop
	// churn streams the BGP-like feed, open loop, beside the whole lookup
	// window. Without it the measured lookups are read-only, and the feed
	// streams only in a tail after them, from which nothing but the
	// convergence lag is taken.
	churn    bool
	probeNth int // every probeNth datagram carries the marker in slot 0
	// feed makes closed-loop bursts of updates the measured window. The
	// lookups then run only in the tail, under the standard churn, on the
	// table that absorbed the bursts.
	feed bool
}

// The open-loop feed beside lookups: one tick every 10 ms carrying the
// updates owed and one marker.
const (
	churnTick  = 10 * time.Millisecond
	churnRate4 = 20000 // IPv4 updates/s
	// IPv6 updates/s. The issue's 5 000 is past what the server sustains:
	// its IPv6 serving bytes grow 5.3 -> 23 MB in 48 s, a publish comes to
	// take 150 ms, lookups fall 3.0 -> 0.3 Mlps and after ~40 s markers go
	// unseen; a 12 s run measured the first third of that collapse, and
	// spread 20 % on an otherwise quiet host.
	churnRate6 = 2000
	// tailShare is the share of a run given to the churn tail on the
	// workloads that do not churn throughout. The tail is there because
	// every workload must report a convergence lag; it is as short as its
	// marker count allows and the workload's own window gets the rest.
	tailShare = 0.25
)

func (sp *spec) churnRate() int {
	if sp.v6 {
		return churnRate6
	}
	return churnRate4
}

var workloads = []spec{
	{
		name:  "v4-batch",
		why:   "read-only 256-address datagrams on the 410K-prefix table, keys from a 1M pool: walker lanes and merged view dominate, syscalls are amortised; a lanes, view or format change shows here",
		batch: 256, window: 8, probeNth: 1,
	},
	{
		name:  "v4-single",
		why:   "read-only 1-address datagrams: recvmmsg/sendmmsg, framing and stats are the whole cost and the walker almost none, so a lookupd change shows here and a walker change must not",
		batch: 1, window: 64, probeNth: 8,
	},
	{
		name:  "v4-churn",
		why:   "v4-batch lookups while the ribd session streams 20 000 BGP-like updates/s open loop: publish cost, view rebuild and pin retries tax the reads on the one server core",
		batch: 256, window: 8, churn: true, probeNth: 1,
	},
	{
		name:  "v4-feed",
		why:   "write-only: closed-loop 4096-update bursts with sync are the operations, no lookups until the closing churn tail: ribd parse/coalesce and shardfib.ApplyBatch do the work and lookupd none",
		batch: 256, window: 8, probeNth: 1, feed: true,
	},
	{
		name: "v6-churn",
		why:  "dual-stack server, AF-tagged 64-address IPv6 datagrams, half the keys inside installed prefixes, beside 2 000 IPv6 updates/s: the ip6 copy of the engine in both directions",
		v6:   true, batch: 64, window: 8, churn: true, probeNth: 1,
	},
	{
		name:    "vrf-64",
		why:     "64 tenants sharing one 51K-route base plus 16 private /24s each, read-only VRF-tagged datagrams rotating over the tenants: vrftab.Resolve, per-datagram pins, shared arenas; memory shows here",
		tenants: 64, batch: 256, window: 8, probeNth: 1,
	},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// paperScale is the table scale of every real run: the sizes below as
// they stand. Only the smoke test runs smaller.
const paperScale = 1.0

// Sizes at paperScale.
const (
	tazPrefixes   = 410513 // the paper's taz instance (Table 1)
	v6Prefixes    = 150000
	vrfBaseRoutes = 51000
	vrfPrivate    = 16 // private /24s per tenant
	poolKeys      = 1 << 20
	burstUpdates  = 4096
	sweepProbes   = 100000
	slices        = 40 // per run
)
