// Package serveexp is the cgserve query-service experiment: aggregate
// throughput and tail latency of concurrent overlapping-window queries
// through the full HTTP stack, with the cross-query sharing layer on vs
// off, plus the result cache's hit rate on a repeated batch.
//
// It lives outside internal/bench because it exercises the public
// commongraph API, which bench cannot import (the root package's own
// tests import bench; the import would cycle through the test binary).
// It registers itself at init — binaries that want the experiment
// (cmd/cgbench) blank-import this package.
package serveexp

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"commongraph"
	apiv1 "commongraph/api/v1"
	"commongraph/internal/bench"
	"commongraph/internal/serve"
)

func init() {
	bench.Register(bench.Experiment{
		Name:  "serve",
		Paper: "Query service scaling (cgserve)",
		Run:   Serve,
	})
}

// snapshots is the served history length; windows drawn below all overlap.
const snapshots = 10

// expWorkers bounds the server's worker pool for the throughput rows. A
// loaded multi-tenant service has far more concurrent queries than cores;
// with an unconstrained pool the redundant common-graph solves of the
// no-sharing arm simply run on idle cores and the work saved by sharing
// never shows up as wall-clock. Two workers make the compute contention
// real, so the throughput ratio reflects the work actually eliminated.
const expWorkers = 2

// Serve runs the query-service experiment. For each concurrency level C
// it fires C requests with distinct overlapping windows at a fresh server
// (result cache off, so the sharing layer does the work) and measures
// aggregate throughput and p50/p99 per-request latency, with cross-query
// sharing disabled and enabled. A final pass with the result cache on
// replays one batch to measure the hit rate.
func Serve(p bench.Params) (*bench.Table, error) {
	g, err := buildGraph(p)
	if err != nil {
		return nil, err
	}
	t := &bench.Table{
		ID:    "Serve",
		Title: "cgserve: concurrent overlapping-window queries through POST /v1/run",
		Header: []string{"Conc", "Sharing", "Throughput q/s", "p50", "p99",
			"ICG solves", "ICG reused", "Shared ratio"},
	}
	type cell struct{ qps float64 }
	byKey := map[string]cell{}
	for _, sharing := range []bool{false, true} {
		for _, conc := range []int{1, 8, 64} {
			m, err := measure(g, conc, sharing)
			if err != nil {
				return nil, err
			}
			byKey[fmt.Sprintf("%d/%v", conc, sharing)] = cell{qps: m.qps}
			label := "off"
			if sharing {
				label = "on"
			}
			t.AddRow(fmt.Sprintf("%d", conc), label,
				fmt.Sprintf("%.1f", m.qps), m.p50.String(), m.p99.String(),
				fmt.Sprintf("%d", m.solves), fmt.Sprintf("%d", m.reused),
				fmt.Sprintf("%.2f", m.sharedRatio))
		}
	}
	speedup := byKey["8/true"].qps / byKey["8/false"].qps
	t.Notes = append(t.Notes,
		fmt.Sprintf("8-way overlapping-window aggregate throughput with sharing: %.2fx vs sharing off (acceptance floor 2x)", speedup),
		fmt.Sprintf("requests draw from 4 pairwise-overlapping windows over %d snapshots; result cache disabled for the sharing rows; worker pool fixed at %d so requests contend for compute as in a loaded service", snapshots, expWorkers),
	)

	hits, total, err := measureCacheHitRate(g)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("result cache: %d/%d hits on an identical repeated batch (%.0f%%)", hits, total, 100*float64(hits)/float64(total)))
	return t, nil
}

// buildGraph synthesizes the served evolving graph: a seeded random
// digraph scaled by the bench params, with per-snapshot addition churn.
func buildGraph(p bench.Params) (*commongraph.EvolvingGraph, error) {
	n := int(20_000 * p.SizeFactor / 4)
	if n < 500 {
		n = 500
	}
	deg := 10
	churn := p.Batch(2_500)
	rng := rand.New(rand.NewSource(int64(p.Seed) ^ 0x5e7e))
	seen := make(map[uint64]bool, n*deg)
	edge := func() commongraph.Edge {
		for {
			src, dst := rng.Intn(n), rng.Intn(n)
			key := uint64(src)<<32 | uint64(dst)
			if src == dst || seen[key] {
				continue
			}
			seen[key] = true
			return commongraph.Edge{
				Src: commongraph.VertexID(src),
				Dst: commongraph.VertexID(dst),
				W:   commongraph.Weight(1 + (src+3*dst)%9),
			}
		}
	}
	base := make([]commongraph.Edge, n*deg)
	for i := range base {
		base[i] = edge()
	}
	g := commongraph.New(n, base)
	for s := 1; s < snapshots; s++ {
		adds := make([]commongraph.Edge, churn)
		for i := range adds {
			adds[i] = edge()
		}
		if _, err := g.ApplyUpdates(adds, nil); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// window i of a batch: one of four overlapping windows (every From <
// snapshots/2 <= every To). Requests repeat windows — the realistic
// multi-tenant profile, where popular windows recur — so the sharing
// layer's rep/schedule memoization works alongside the ICG sharing.
func window(i int) apiv1.Window {
	i %= 4
	return apiv1.Window{From: i, To: snapshots - 1 - (i % 3)}
}

type measurement struct {
	qps         float64
	p50, p99    time.Duration
	solves      uint64
	reused      uint64
	sharedRatio float64
}

// measure fires conc concurrent requests at a fresh server and reports
// aggregate throughput, latency percentiles, and the sharing stats.
func measure(g *commongraph.EvolvingGraph, conc int, sharing bool) (measurement, error) {
	srv := serve.New(serve.GraphSource(g), serve.Config{
		Workers:        expWorkers,
		QueueDepth:     2*conc + 8, // never shed: we are measuring work, not admission
		CacheEntries:   -1,
		DisableSharing: !sharing,
	})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	client, err := apiv1.Dial(hs.URL)
	if err != nil {
		return measurement{}, err
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		lats = make([]time.Duration, 0, conc)
		errs []error
	)
	start := time.Now()
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			win := window(i)
			t0 := time.Now()
			_, err := client.Run(context.Background(), &apiv1.RunRequest{
				Algorithm: "SSSP",
				Source:    0,
				Window:    &win,
				Strategy:  "direct-hop",
			})
			d := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			lats = append(lats, d)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	if len(errs) > 0 {
		return measurement{}, fmt.Errorf("serveexp: %d/%d requests failed, first: %w", len(errs), conc, errs[0])
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	m := measurement{
		qps: float64(conc) / wall.Seconds(),
		p50: lats[len(lats)/2].Round(time.Microsecond),
		p99: lats[(len(lats)*99)/100].Round(time.Microsecond),
	}
	if pc := srv.PlanCache(); pc != nil {
		st := pc.Stats()
		m.solves = st.Solves
		m.reused = st.Derives + st.Shared
		if total := st.Solves + m.reused; total > 0 {
			m.sharedRatio = float64(m.reused) / float64(total)
		}
	}
	return m, nil
}

// measureCacheHitRate replays one 8-request batch against a cache-enabled
// server and counts how many of the replayed responses were served from
// the result cache.
func measureCacheHitRate(g *commongraph.EvolvingGraph) (hits, total int, err error) {
	srv := serve.New(serve.GraphSource(g), serve.Config{Workers: runtime.GOMAXPROCS(0), QueueDepth: 32})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	client, err := apiv1.Dial(hs.URL)
	if err != nil {
		return 0, 0, err
	}
	const batch = 8
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < batch; i++ {
			win := window(i)
			res, err := client.Run(context.Background(), &apiv1.RunRequest{
				Algorithm: "BFS", Source: 1, Window: &win,
			})
			if err != nil {
				return 0, 0, err
			}
			if pass == 1 {
				total++
				if res.Cached {
					hits++
				}
			}
		}
	}
	return hits, total, nil
}
