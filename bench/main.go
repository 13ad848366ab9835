// Command bench is the process-level benchmark of the shipped
// fibserve: it generates every input from -seed, builds and starts the
// real cmd/fibserve as a separate process pinned to its own CPU,
// drives one of six named workloads through one UDP lookup socket and
// one ribd TCP session, checks every answer against an offline control
// trie, and prints each metric by name with its unit.
//
//	bash bench/run.sh --workload v4-batch --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -repeats 10 -out a.json      # all six workloads
//	bash bench/run.sh -compare a.json b.json
//
// With --trace 1 the same generated inputs are also replayed in-process
// for fixed counts of operations with in-memory spans around the calls
// into each package's public functions; that run prints the per-layer
// metrics and the two budget ladders. See README.md for every
// definition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() {
	execOnCPU()
	var (
		workload = flag.String("workload", "all", "workload name, or \"all\" for the six in order")
		seed     = flag.Int64("seed", 1, "seed of every generated input (tables, key pools, feeds, tenant deltas)")
		seconds  = flag.Float64("seconds", 12, "measured seconds per run: the workload's window and, unless it churns throughout, the churn tail")
		trace    = flag.Int("trace", 0, "1: also replay in-process with spans and print the per-layer metrics")
		repeats  = flag.Int("repeats", 1, "runs per workload, on seeds seed..seed+repeats-1")
		out      = flag.String("out", "", "write the full result document here (default: only the summary on stdout)")
		spansOut = flag.String("spans", "", "with -trace 1: write the recorded spans here as JSON")
		compare  = flag.Bool("compare", false, "compare two result documents: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare a.json b.json")
		}
		os.Exit(compareDocs(flag.Arg(0), flag.Arg(1)))
	}

	var specs []*spec
	for i := range workloads {
		if *workload == "all" || *workload == workloads[i].name {
			specs = append(specs, &workloads[i])
		}
	}
	if len(specs) == 0 {
		fatalf("unknown workload %q (have: %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || *repeats < 1 {
		fatalf("-seconds and -repeats must be positive")
	}

	env, err := newEnv()
	if err != nil {
		fatalf("%v", err)
	}
	// A signal must not leave a server or a run directory behind:
	// cleanup kills the child's process group and removes the directory.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		env.cleanup()
		os.Exit(130)
	}()
	defer env.cleanup()

	d := doc{Header: env.header(*seed, *seconds, *trace)}
	ok := true
	var last *result
	for _, sp := range specs {
		for r := 0; r < *repeats; r++ {
			res, err := runWorkload(env, sp, *seed+int64(r), *seconds, paperScale, *trace == 1, *spansOut)
			if err != nil {
				env.cleanup()
				fatalf("%s: %v", sp.name, err)
			}
			res.print(os.Stdout, *trace == 1)
			d.Results = append(d.Results, res)
			ok = ok && res.Correct
			last = res
		}
	}
	if *out != "" {
		b, _ := json.MarshalIndent(d, "", " ")
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			env.cleanup()
			fatalf("%v", err)
		}
	}
	if len(d.Results) > 1 {
		d.printSummary(os.Stdout)
	}
	// The last line of standard output is the one-object summary of the
	// last run: the end-to-end metrics untraced, the per-layer ones traced.
	fmt.Println(last.contractLine(*trace == 1))
	if !ok {
		env.cleanup()
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// doc is the result document: one run header and one result per
// workload and repeat.
type doc struct {
	Header  header    `json:"header"`
	Results []*result `json:"results"`
}

// header states where and how the numbers were taken.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Git        string  `json:"git"`
	Kernel     string  `json:"kernel"`
	Pinned     bool    `json:"pinned"`
	YardNs     float64 `json:"yardstick_nominal_ns"`
	ServerCPU  int     `json:"server_cpu"`
	GenCPU     int     `json:"generator_cpu"`
	Network    string  `json:"network"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Prefixes  map[string]int       `json:"prefixes"`
	Metrics   map[string]value     `json:"metrics"`
	Layers    map[string]value     `json:"layers,omitempty"`
	Spread    map[string]float64   `json:"slice_spread"` // (q3-q1)/median over the window's slices
	Slices    map[string][]float64 `json:"slices"`       // what each slice of a window measured
	Samples   map[string]int       `json:"samples"`
	Timing    map[string]float64   `json:"timing_s"` // where the run's own wall time went
	Notes     []string             `json:"notes,omitempty"`
	Ladders   []string             `json:"ladders,omitempty"`
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// print writes every metric of the run by name, with workload and unit.
func (r *result) print(w *os.File, traced bool) {
	fmt.Fprintf(w, "# %s seed=%d correct=%v attempted=%d failed=%d prefixes=%v timing=%v\n",
		r.Workload, r.Seed, r.Correct, r.Attempted, r.Failed, r.Prefixes, r.Timing)
	for _, m := range endToEnd {
		v := r.Metrics[m.name]
		extra := ""
		if s, ok := r.Spread[m.name]; ok {
			extra += fmt.Sprintf("  slice-spread=%.1f%%", 100*s)
		}
		if n, ok := r.Samples[m.name]; ok {
			extra += fmt.Sprintf("  n=%d", n)
		}
		fmt.Fprintf(w, "%-10s %-24s %14.4f %-6s (%s is better, bound %g%%)%s\n",
			r.Workload, m.name, v.Value, v.Unit, m.better, 100*m.bound, extra)
	}
	if traced {
		for _, m := range perLayer {
			v := r.Layers[m.name]
			fmt.Fprintf(w, "%-10s %-36s %14.4f %s\n", r.Workload, m.name, v.Value, v.Unit)
		}
		for _, l := range r.Ladders {
			fmt.Fprintln(w, l)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "%-10s note: %s\n", r.Workload, n)
	}
}

// contractLine is the one-line JSON object the benchmark contract
// asks for as the last line of standard output.
func (r *result) contractLine(traced bool) string {
	m := r.Metrics
	if traced {
		m = r.Layers
	}
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, m})
	return string(b)
}

// printSummary prints, per workload and end-to-end metric, the median,
// quartile spread and range over the repeats.
func (d *doc) printSummary(w *os.File) {
	for _, name := range d.workloads() {
		for _, m := range endToEnd {
			s := summarize(d.values(name, m.name))
			fmt.Fprintf(w, "= %-10s %-24s median %14.4f %-6s iqr/median %5.1f%%  min %.4f max %.4f  n=%d\n",
				name, m.name, s.median, m.unit, 100*s.spread, s.min, s.max, s.n)
		}
	}
}

func (d *doc) workloads() []string {
	var names []string
	seen := map[string]bool{}
	for _, r := range d.Results {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	return names
}

func (d *doc) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range d.Results {
		if r.Workload == workload {
			if v, ok := r.Metrics[metric]; ok {
				vs = append(vs, v.Value)
			}
		}
	}
	return vs
}

func (e *env) header(seed int64, seconds float64, trace int) header {
	return header{
		NProc: e.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Git: e.gitRevision(), Kernel: kernelRelease(), Pinned: e.pinned, YardNs: yardNominal,
		ServerCPU: e.srvCPU, GenCPU: e.genCPU,
		Network: "loopback (127.0.0.1); no real link is crossed",
		Seed:    seed, Seconds: seconds, Trace: trace,
	}
}

// median and percentile work on a copy; p in [0,1], nearest-rank.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
