package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one entry of the benchmark: a generator for its inputs.
type workload struct {
	name string
	// opsPerSecond sizes the timed phase: it is the op rate measured on
	// the 2-core reference box, so -seconds x opsPerSecond ops take about
	// -seconds there. The count, not the duration, is what is fixed.
	opsPerSecond float64
	// blockOps is the length of one block of the timed phase. Every
	// block runs the same op at the same position: the same query of the
	// rotation (on live-slide against the next transitions), the same
	// kind of request of the mix (on serve-mix with a fresh source where
	// the kind wants one). Blocks are therefore like for like, and
	// throughput is the median block's, which a burst of interference
	// from the shared box cannot move unless it covers half the run.
	blockOps int
	// tracedOps is the length of each pass of the traced phase.
	tracedOps int
	// generate derives every input of a run from cfg.seed; ops is the
	// number of ops the longest phase will run and period the block
	// length after which the op sequence must repeat.
	generate func(cfg runConfig, ops, period int) (inputs, error)
}

var workloads = []workload{
	{name: "dh-wide", opsPerSecond: 11, blockOps: 40, tracedOps: 20, generate: generateDHWide},
	{name: "ws-many", opsPerSecond: 10.8, blockOps: 40, tracedOps: 20, generate: generateWSMany},
	{name: "serve-mix", opsPerSecond: 205, blockOps: 750, tracedOps: 300, generate: generateServeMix},
	{name: "live-slide", opsPerSecond: 11.9, blockOps: 40, tracedOps: 50, generate: generateLiveSlide},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs is a workload's generated input set.
type inputs interface {
	// fingerprints are the FNV hashes of the edge lists and the request
	// stream, for the first n ops.
	fingerprints(n int) []string
	// setUp builds the product from the generated lists (graph, store,
	// server) and runs the warm-up ops: everything before the first
	// timed op. probe, when non-nil, receives set-up layer timings.
	setUp(cfg runConfig, probe *report) (instance, error)
}

// instance is a product set up and warm, ready for ops.
type instance interface {
	// timed runs `blocks` blocks of blockOps ops untraced and records
	// failures on rep.
	timed(blocks, blockOps int, rep *report) phase
	// verify checks a deterministic sample of the timed phase's results
	// against engine.Reference, and that repeated requests agreed.
	verify(rep *report)
	// traced runs the traced phase of n ops after the timed phase, whose
	// measurements are the untraced base, and reports layer metrics.
	traced(n int, base phase, rec *recorder, rep *report)
	close() error
}

// phase is what a closed-loop pass measured.
type phase struct {
	lat       []time.Duration // per op, block after block
	opsPerSec []float64       // per block: block ops / block wall time, pauses excluded
	alloc     uint64          // TotalAlloc delta, verification pauses excluded
}

// p50 and p90 are quantiles over every op's latency, in ms.
func (p phase) p50() float64 { return quantile(durationsMS(p.lat), 0.5) }
func (p phase) p90() float64 { return quantile(durationsMS(p.lat), 0.9) }

// median sorts xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
}

func runWorkload(w workload, cfg runConfig) (*report, error) {
	rep := &report{workload: w.name, cfg: cfg}
	blocks, blockOps := cfg.timedBlocks(w)
	ops := blocks * blockOps
	tracedOps := cfg.n(w.tracedOps, 5)
	if cfg.traced {
		ops += 2 * tracedOps // the traced pass, and serve-mix's two-client pass
	}

	t0 := time.Now()
	in, err := w.generate(cfg, ops, blockOps)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	generateS := time.Since(t0).Seconds()
	rep.fingerprints = in.fingerprints(ops)
	rep.ops = ops

	// Collect what generation left behind, off the clock, so that set-up
	// starts from the same heap whatever the generator allocated.
	runtime.GC()
	var probe *report
	if cfg.traced {
		probe = rep
	}
	t0 = time.Now()
	inst, err := in.setUp(cfg, probe)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setUpS := time.Since(t0).Seconds()
	ph := inst.timed(blocks, blockOps, rep)
	beyond := len(ph.lat) - int(math.Ceil(0.9*float64(len(ph.lat))))
	rep.note("samples=%d (%d blocks of %d ops), %d beyond the p90; block ops/s %.4g; generate_s=%.3f",
		len(ph.lat), blocks, blockOps, beyond, ph.opsPerSec, generateS)

	if cfg.traced {
		rec := newRecorder()
		inst.traced(tracedOps, ph, rec, rep)
		if err := inst.close(); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
		rep.layer("gen.generate_s", generateS, "")
		rep.layer("op_p90_ms", ph.p90(), "untraced timed phase")
		rep.layer("failed_share", float64(rep.failed)/float64(rep.attempted), "")
		rep.fillLayers()
		out := cfg.traceOut
		if out == "" {
			out = filepath.Join(cfg.workDir, "trace-"+w.name+".json")
		}
		if err := rec.write(out, w.name, cfg.seed); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		rep.spanFile = out
		rep.note("%d spans written to %s", len(rec.spans), out)
		return rep, nil
	}

	inst.verify(rep)
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	rss, err := rssPeakMB()
	if err != nil {
		return nil, err
	}
	rep.add("setup_s", "s", setUpS)
	rep.add("op_p50_ms", "ms", ph.p50())
	rep.add("ops_per_s", "1/s", median(append([]float64(nil), ph.opsPerSec...)))
	rep.add("alloc_mb_per_op", "MB", float64(ph.alloc)/1e6/float64(len(ph.lat)))
	rep.add("rss_peak_mb", "MB", rss)
	// The two end-to-end metrics the result line cannot carry: op_p90_ms
	// was demoted to the per-layer list for its spread, and failed_share
	// is always 0 where the contract wants metrics that never are.
	rep.metrics = append(rep.metrics,
		metric{Name: "op_p90_ms", Unit: "ms", Value: ph.p90(), Note: "per-layer in the catalogue", TextOnly: true},
		metric{Name: "failed_share", Unit: "ratio", Value: float64(rep.failed) / float64(rep.attempted), Note: "absolute bound 0, kept by the exit code", TextOnly: true})
	return rep, nil
}

// runBlocks runs `blocks` consecutive blocks of blockOps ops each in a
// closed loop: one caller, which issues op i+1 when op i returned. do
// runs op i and is timed; verify, when non-nil, runs after every
// verifyEvery-th op with every clock stopped.
func runBlocks(blocks, blockOps int, do func(i int), verifyEvery int, verify func(i int)) phase {
	ph := phase{lat: make([]time.Duration, blocks*blockOps)}
	var pausedAlloc uint64
	a0 := totalAlloc()
	for b := 0; b < blocks; b++ {
		var paused time.Duration
		start := time.Now()
		for i := b * blockOps; i < (b+1)*blockOps; i++ {
			t := time.Now()
			do(i)
			ph.lat[i] = time.Since(t)
			if verify != nil && i%verifyEvery == 0 {
				p, a := time.Now(), totalAlloc()
				verify(i)
				pausedAlloc += totalAlloc() - a
				paused += time.Since(p)
			}
		}
		wall := time.Since(start) - paused
		ph.opsPerSec = append(ph.opsPerSec, float64(blockOps)/wall.Seconds())
	}
	ph.alloc = totalAlloc() - a0 - pausedAlloc
	return ph
}

// agreement checks that every pair of ops with the same (query, window,
// generation) returned the same checksum vector.
type agreement map[string]uint64

func (a agreement) check(key string, vector uint64, rep *report) {
	if prev, ok := a[key]; ok && prev != vector {
		rep.fail("ops with key %s returned different checksum vectors", key)
		return
	}
	a[key] = vector
}

// vectorHash folds a checksum vector into one word.
func vectorHash(checksums []uint64) uint64 {
	f := newFingerprint()
	for _, c := range checksums {
		f.u64(c)
	}
	return f.h.Sum64()
}
