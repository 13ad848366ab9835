package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// summary is one metric on one workload over the repeats of a document.
type summary struct {
	median, spread, min, max float64 // spread is (q3-q1)/median
	n                        int
}

// summarize uses the quartiles of Python's statistics.quantiles(v, n=4),
// the rule the benchmark's acceptance check applies.
func summarize(vs []float64) summary {
	s := summary{n: len(vs), median: median(vs)}
	if len(vs) == 0 {
		return s
	}
	x := append([]float64(nil), vs...)
	sort.Float64s(x)
	s.min, s.max = x[0], x[len(x)-1]
	if len(x) < 2 || s.median == 0 {
		return s
	}
	quartile := func(i int) float64 {
		m := len(x) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(x)-1 {
			j = len(x) - 1
		}
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	s.spread = (quartile(3) - quartile(1)) / math.Abs(s.median)
	return s
}

func loadDoc(path string) (*doc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d := &doc{}
	if err := json.Unmarshal(b, d); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return d, nil
}

// sliceSpread is the widest within-run slice spread a document recorded
// for a metric, the only spread a single run has.
func (d *doc) sliceSpread(workload, metric string) float64 {
	w := 0.0
	for _, r := range d.Results {
		if r.Workload == workload {
			w = math.Max(w, r.Spread[metric])
		}
	}
	return w
}

// compareDocs prints, per workload and end-to-end metric, the two
// medians and the move from a to b, and flags only moves beyond the
// metric's bound. A pairing whose spread exceeds the bound is reported
// as unresolved, not as unchanged. A workload or a metric that one of the
// documents lacks is a failure, not a row to skip: a run that stopped
// emitting a number must not pass for one that kept it. It returns 1
// when b regressed or anything is missing.
func compareDocs(pathA, pathB string) int {
	a, err := loadDoc(pathA)
	if err != nil {
		fatalf("%v", err)
	}
	b, err := loadDoc(pathB)
	if err != nil {
		fatalf("%v", err)
	}
	if a.Header.Seconds != b.Header.Seconds || a.Header.NProc != b.Header.NProc || a.Header.Pinned != b.Header.Pinned {
		fmt.Printf("warning: the two documents were not taken alike: %+v vs %+v\n", a.Header, b.Header)
	}
	names := a.workloads()
	for _, w := range b.workloads() {
		if len(a.values(w, "setup_s")) == 0 {
			names = append(names, w)
		}
	}
	regressed, unresolved, missing, rows := 0, 0, 0, 0
	for _, w := range names {
		for _, m := range endToEnd {
			sa, sb := summarize(a.values(w, m.name)), summarize(b.values(w, m.name))
			rows++
			if sa.n == 0 || sb.n == 0 || sa.median == 0 {
				fmt.Printf("%-10s %-24s MISSING: %d value(s) in %s, %d in %s\n", w, m.name, sa.n, pathA, sb.n, pathB)
				missing++
				continue
			}
			move := (sb.median - sa.median) / sa.median
			worse := move
			if m.better == "higher" {
				worse = -move
			}
			spread := math.Max(sa.spread, sb.spread)
			if sa.n < 4 || sb.n < 4 {
				spread = math.Max(a.sliceSpread(w, m.name), b.sliceSpread(w, m.name))
			}
			verdict := ""
			switch {
			case spread > m.bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%% > bound)", 100*spread)
				unresolved++
			case worse > m.bound:
				verdict = "REGRESSION"
				regressed++
			case worse < -m.bound:
				verdict = "improved"
			}
			fmt.Printf("%-10s %-24s %14.4f -> %14.4f %-5s %+7.2f%%  bound %4.1f%%  n=%d,%d  %s\n",
				w, m.name, sa.median, sb.median, m.unit, 100*move, 100*m.bound, sa.n, sb.n, verdict)
		}
	}
	fmt.Printf("%d pairings, %d regressed, %d unresolved, %d missing\n", rows, regressed, unresolved, missing)
	if regressed > 0 || missing > 0 {
		return 1
	}
	return 0
}
