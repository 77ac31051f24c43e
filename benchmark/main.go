// Command benchmark is the repository's performance benchmark: four
// workloads over the CommonGraph stack, seven end-to-end metrics, and a
// per-layer breakdown from a traced phase. BENCHMARK.json at the
// repository root is its catalogue and README.md its rationale.
//
//	go run ./benchmark -seed 7                      # every workload, both phases
//	go run ./benchmark -workload ws-many -seed 7    # one workload, timed phase
//	go run ./benchmark -workload ws-many -trace 1   # one workload, timed then traced phase
//	go run ./benchmark -selfcheck                   # two interleaved sets, compared to ISSUE 11's bounds
//
// With -workload the process is the measured process (its VmHWM is
// rss_peak_mb) and the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. Without it the
// command re-executes itself once per workload and phase, so every
// workload runs in a fresh child, and prints the collected table.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runConfig is everything a workload run depends on besides the code.
type runConfig struct {
	seed     uint64
	seconds  int     // sizes the timed phase: ops = opsPerSecond x seconds
	scale    float64 // multiplies every op count (smoke runs)
	traced   bool    // add the traced phase; the result line carries the per-layer metrics
	traceOut string  // span file of the traced phase
	workDir  string  // parent of the live-slide store directories
}

// n scales an op count, keeping at least min ops.
func (c runConfig) n(count, min int) int {
	v := int(math.Round(float64(count) * c.scale))
	if v < min {
		v = min
	}
	return v
}

// timedBlocks sizes a timed phase from the -seconds flag: as many whole
// blocks as fit the workload's reference rate. Counts are fixed per
// (seconds, scale), so two commits run identical ops; at scale 1 and
// above a phase has at least three whole blocks and so never fewer than
// 100 ops, which leaves ten samples beyond the p90. A smoke scale below 1
// runs one shortened block.
func (c runConfig) timedBlocks(w workload) (blocks, blockOps int) {
	blocks = int(math.Round(w.opsPerSecond * float64(c.seconds) / float64(w.blockOps)))
	if c.scale < 1 {
		return 1, c.n(blocks*w.blockOps, 5)
	}
	return c.n(blocks, 3), w.blockOps
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// background is the context of every call the benchmark makes into the
// program: the command has no caller to take one from, and no op is ever
// cancelled.
func background() context.Context {
	return context.Background() //cgvet:ignore ctxflow -- root of a command; cgvet's allowlist names only cmd/ and examples/
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "run one workload in this process: "+strings.Join(workloadNames(), ", ")+" (default: all, each in a child process)")
	seed := fs.Uint64("seed", 1, "input seed; the only source of the generated inputs")
	seconds := fs.Int("seconds", 22, "length of the timed phase the op counts are sized for")
	trace := fs.Int("trace", 0, "0: timed phase, end-to-end metrics; 1: timed then traced phase, per-layer metrics")
	scale := fs.Float64("scale", 1, "multiply every op count (smoke runs)")
	selfcheck := fs.Bool("selfcheck", false, "run two interleaved sets of 5 runs per workload and compare each end-to-end metric with its resolution bound")
	traceOut := fs.String("trace-out", "", "span file of the traced phase (default <workdir>/trace-<workload>.json)")
	workDir := fs.String("workdir", ".bench_build/work", "scratch directory for stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *scale <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: want -seconds >= 1, -scale > 0, -trace 0|1 and no positional arguments")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, scale: *scale, traced: *trace == 1, traceOut: *traceOut, workDir: *workDir}

	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s)\n", *workloadName, strings.Join(workloadNames(), ", "))
			return 2
		}
		rep, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		rep.print(stdout)
		if !rep.correct() {
			return 1
		}
		return 0
	}

	passArgs := []string{"-seed", strconv.FormatUint(cfg.seed, 10), "-seconds", strconv.Itoa(cfg.seconds),
		"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64), "-workdir", cfg.workDir}
	if *selfcheck {
		return runSelfcheck(passArgs, stdout, stderr)
	}
	ok := true
	for _, w := range workloads {
		for _, tr := range []string{"0", "1"} {
			res, err := runChild(append([]string{"-workload", w.name, "-trace", tr}, passArgs...), stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s (trace %s): %v\n", w.name, tr, err)
				ok = false
				continue
			}
			ok = ok && res.Correct && res.Failed == 0
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// childResult is a child's report as the parent reads it back: the
// contract's result line, and every metric the child printed by name,
// those it keeps off the result line included.
type childResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	printed   map[string]float64
}

// runChild re-executes this binary with args, passes its report through
// and returns the parsed last line. The child is waited for before
// returning; it is never left running.
func runChild(args []string, stdout, stderr io.Writer) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var last string
	printed := map[string]float64{}
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(stdout, last)
		}
		last = sc.Text()
		// "metric <workload> <name> <value> <unit>", as report.print writes it.
		if f := strings.Fields(last); len(f) >= 5 && f[0] == "metric" {
			if v, err := strconv.ParseFloat(f[3], 64); err == nil {
				printed[f[2]] = v
			}
		}
	}
	if runErr != nil {
		if last != "" {
			fmt.Fprintln(stdout, last)
		}
		return nil, runErr
	}
	var res childResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("child printed no result line: %w", err)
	}
	res.printed = printed
	return &res, nil
}

// selfcheckRuns is the number of runs behind each set of a selfcheck: a
// slow spell of the box takes in two or three consecutive runs, and a
// median of five holds against two.
const selfcheckRuns = 5

// resolution is what two interleaved sets of one binary must agree
// within: the bounds ISSUE 11 set for the end-to-end metrics. They are the
// benchmark's resolution under the comparison the metrics guide asks a
// claim to use, alternating runs of the two sides. The bounds in
// BENCHMARK.json are wider: they gate sets of runs that do not alternate,
// which a slow stretch of the box separates by more than this.
var resolution = []struct {
	name  string
	bound float64
}{
	{"setup_s", 0.10},
	{"op_p50_ms", 0.07},
	{"op_p90_ms", 0.10},
	{"ops_per_s", 0.07},
	{"alloc_mb_per_op", 0.03},
	{"rss_peak_mb", 0.10},
}

// runSelfcheck measures every workload's timed phase in two sets with the
// same binary and seed and compares the sets metric by metric against
// resolution; failed_share must be 0. A set's value is the median of
// selfcheckRuns runs, and the two sets' runs alternate, so a slow stretch
// of the box falls on both.
func runSelfcheck(passArgs []string, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range workloads {
		var sets [2]map[string][]float64
		failed := 0
		for i := 0; i < 2*selfcheckRuns; i++ {
			res, err := runChild(append([]string{"-workload", w.name, "-trace", "0"}, passArgs...), io.Discard, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: selfcheck %s run %d: %v\n", w.name, i+1, err)
				return 1
			}
			failed += res.Failed
			if sets[i%2] == nil {
				sets[i%2] = map[string][]float64{}
			}
			for name, v := range res.printed {
				sets[i%2][name] = append(sets[i%2][name], v)
			}
		}
		for _, m := range resolution {
			a, b := median(sets[0][m.name]), median(sets[1][m.name])
			diff := math.Abs(a-b) / math.Min(a, b)
			verdict := "ok"
			if !(diff <= m.bound) {
				verdict = "EXCEEDS"
				code = 1
			}
			fmt.Fprintf(stdout, "selfcheck %-10s %-16s set1=%-12.6g set2=%-12.6g diff=%.4f bound=%.2f %s\n",
				w.name, m.name, a, b, diff, m.bound, verdict)
		}
		verdict := "ok"
		if failed > 0 {
			verdict = "EXCEEDS"
			code = 1
		}
		fmt.Fprintf(stdout, "selfcheck %-10s %-16s failed=%d in %d runs, bound=0 (absolute) %s\n", w.name, "failed_share", failed, 2*selfcheckRuns, verdict)
	}
	return code
}
