package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// The test binary is also the confining trampoline of the servers it
// starts.
func TestMain(m *testing.M) {
	execOnCPU()
	os.Exit(m.Run())
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkFile: BENCHMARK.json and the tables in metrics.go name
// the same workloads and metrics, with the same units, directions and
// bounds.
func TestBenchmarkFile(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the benchmark %d+%d", len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range f.EndToEnd {
		if want := endToEnd[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json says %+v, the benchmark %+v", i, m, want)
		}
	}
	for i, m := range f.PerLayer {
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer %d: BENCHMARK.json says %+v, the benchmark %+v", i, m, want)
		}
	}
}

// TestSmoke runs all six workloads, traced, at 1/32 scale with runs
// of a few hundred milliseconds on ephemeral ports: every name in the
// tables is emitted, nothing fails, and no child process or scratch
// directory survives.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	// On a failure or a timeout panic the cleanup still kills every
	// server's process group and removes the scratch directory.
	t.Cleanup(e.cleanup)
	for i := range workloads {
		sp := &workloads[i]
		res, err := runWorkload(e, sp, 1, 0.75, 1.0/32, true, "")
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d notes=%v", sp.name, res.Correct, res.Failed, res.Attempted, res.Notes)
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.name]; !ok || !(v.Value > 0) || v.Unit != m.unit {
				t.Errorf("%s: end-to-end metric %s = %+v", sp.name, m.name, v)
			}
		}
		for _, m := range perLayer {
			if v, ok := res.Layers[m.name]; !ok || v.Unit != m.unit || v.Value < 0 {
				t.Errorf("%s: per-layer metric %s = %+v", sp.name, m.name, v)
			}
		}
		if len(res.Ladders) == 0 {
			t.Errorf("%s: no budget ladders", sp.name)
		}
	}
	e.cleanup()
	if _, err := os.Stat(e.dir); !os.IsNotExist(err) {
		t.Errorf("scratch directory %s survives", e.dir)
	}
	procs, _ := os.ReadDir("/proc")
	for _, p := range procs {
		if _, err := strconv.Atoi(p.Name()); err != nil {
			continue
		}
		if exe, err := os.Readlink(filepath.Join("/proc", p.Name(), "exe")); err == nil && exe == e.fibsrv {
			t.Errorf("fibserve process %s survives", p.Name())
		}
	}
}
