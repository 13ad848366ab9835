// Command fibbench regenerates every table and figure of the paper's
// evaluation (§5). By default it runs at 1/8 paper scale so the whole
// suite finishes in minutes; pass -scale 1 for paper-scale instances.
//
//	fibbench -all
//	fibbench -table1 -scale 1
//	fibbench -fig5 -runs 15 -updates 7500
//
// The serving engine is measured by bench/ (the process-level
// benchmark of the shipped fibserve), not here.
package main

import (
	"flag"
	"fmt"
	"os"

	"fibcomp/internal/experiments"
)

func main() {
	var (
		table1  = flag.Bool("table1", false, "regenerate Table 1 (FIB compression)")
		table2  = flag.Bool("table2", false, "regenerate Table 2 (lookup benchmark)")
		fig5    = flag.Bool("fig5", false, "regenerate Fig 5 (update vs memory)")
		fig6    = flag.Bool("fig6", false, "regenerate Fig 6 (Bernoulli FIBs)")
		fig7    = flag.Bool("fig7", false, "regenerate Fig 7 (string model)")
		ablate  = flag.Bool("ablation", false, "run the design-choice ablations")
		all     = flag.Bool("all", false, "run everything")
		scale   = flag.Float64("scale", 0.125, "instance scale relative to the paper (1 = full)")
		seed    = flag.Int64("seed", 1, "generator seed")
		runs    = flag.Int("runs", 3, "Fig 5: measurement runs per barrier (paper: 15)")
		updates = flag.Int("updates", 1500, "Fig 5: updates per run (paper: 7500)")
		bits    = flag.Int("bits", 17, "Fig 7: lg of the string length (paper: 17)")
	)
	flag.Parse()

	cfg := experiments.Config{Seed: *seed, Scale: *scale}
	if !(*table1 || *table2 || *fig5 || *fig6 || *fig7 || *ablate) {
		*all = true
	}
	run := func(name string, f func() error) {
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "fibbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if *all || *table1 {
		run("table1", func() error { _, err := experiments.RunTable1(cfg, nil, os.Stdout); return err })
	}
	if *all || *table2 {
		run("table2", func() error { _, err := experiments.RunTable2(cfg, os.Stdout); return err })
	}
	if *all || *fig5 {
		run("fig5", func() error {
			_, err := experiments.RunFig5(cfg, nil, *runs, *updates, os.Stdout)
			return err
		})
	}
	if *all || *fig6 {
		run("fig6", func() error { _, err := experiments.RunFig6(cfg, nil, os.Stdout); return err })
	}
	if *all || *fig7 {
		run("fig7", func() error { _, err := experiments.RunFig7(cfg, *bits, nil, os.Stdout); return err })
	}
	if *all || *ablate {
		run("ablation", func() error { _, err := experiments.RunAblation(cfg, os.Stdout); return err })
	}
}
