// Command cgbench regenerates the paper's evaluation (§5: Figure 1,
// Tables 2, 4 and 5, Figures 8–11) and the design ablations on synthetic
// stand-in workloads, and runs the observability overhead gate
// (-exp obs-overhead). It is the one front end to internal/bench; store,
// replication and query-service costs are measured by the repository
// benchmark (benchmark/).
//
// Usage:
//
//	cgbench -list
//	cgbench -exp table4
//	cgbench -exp all -json BENCH.json
//	COMMONGRAPH_SCALE=4 cgbench -exp fig8 -snapshots 50
//
// Setting COMMONGRAPH_TRACE=<path.json> additionally writes a Chrome
// trace of every evaluation the experiments ran.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"commongraph/internal/bench"
	"commongraph/internal/obs"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment to run (see -list), or 'all'")
		list      = flag.Bool("list", false, "list available experiments")
		snapshots = flag.Int("snapshots", 0, "override window length (default: paper's 50)")
		seed      = flag.Uint64("seed", 0, "override workload seed")
		jsonPath  = flag.String("json", "", "write all results as one machine-readable JSON report to this file")
		metrics   = flag.Bool("metrics", false, "dump the metric registry in Prometheus text format to stderr when done")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-26s regenerates %s\n", e.Name, e.Paper)
		}
		if *exp == "" {
			os.Exit(0)
		}
		return
	}

	p := bench.Default()
	if *snapshots > 1 {
		p.Snapshots = *snapshots
	}
	if *seed != 0 {
		p.Seed = *seed
	}

	report := &bench.Report{Params: p}
	run := func(name string) {
		start := time.Now()
		e, _ := bench.ByName(name)
		tab, err := e.Run(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cgbench: %v\n", err)
			os.Exit(1)
		}
		report.Experiments = append(report.Experiments, bench.ReportEntry{
			Name:           name,
			ElapsedSeconds: time.Since(start).Seconds(),
			Table:          tab,
		})
		tab.Fprint(os.Stdout)
		fmt.Printf("(%s completed in %s)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if _, ok := bench.ByName(*exp); !ok && *exp != "all" {
		fmt.Fprintf(os.Stderr, "cgbench: unknown experiment %q\n", *exp)
		os.Exit(1)
	}

	if *exp == "all" {
		for _, e := range bench.Experiments() {
			run(e.Name)
		}
	} else {
		run(*exp)
	}
	finish(report, *jsonPath, *metrics)
}

// finish writes the run's machine-readable artifacts: the JSON report,
// the Prometheus metrics dump, and the COMMONGRAPH_TRACE Chrome trace.
func finish(report *bench.Report, jsonPath string, metrics bool) {
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cgbench: %v\n", err)
			os.Exit(1)
		}
		if err := report.WriteJSON(f); err == nil {
			err = f.Close()
			if err == nil {
				fmt.Printf("(wrote JSON report to %s)\n", jsonPath)
			}
		} else {
			f.Close()
			fmt.Fprintf(os.Stderr, "cgbench: %v\n", err)
			os.Exit(1)
		}
	}
	if metrics {
		if err := obs.Default().WritePrometheus(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "cgbench: %v\n", err)
		}
	}
	if err := obs.WriteEnvTrace(); err != nil {
		fmt.Fprintf(os.Stderr, "cgbench: %v\n", err)
	}
}
