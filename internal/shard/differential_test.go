package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"commongraph/internal/algo"
	"commongraph/internal/delta"
	"commongraph/internal/engine"
	"commongraph/internal/gen"
	"commongraph/internal/graph"
)

// shardCounts is the plan matrix every differential check runs against:
// 1 exercises the engine fallback, 2 the minimal exchange, 3 an odd cut,
// 7 a prime that never divides the vertex space evenly.
var shardCounts = []int{1, 2, 3, 7}

func randomGraphAndBatch(rng *rand.Rand, n, m, batch int) (*graph.Pair, graph.EdgeList) {
	edges := make(graph.EdgeList, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, graph.Edge{
			Src: graph.VertexID(rng.Intn(n)),
			Dst: graph.VertexID(rng.Intn(n)),
			W:   graph.Weight(1 + rng.Intn(8)),
		})
	}
	edges = edges.Canonicalize()
	add := make(graph.EdgeList, 0, batch)
	for i := 0; i < batch; i++ {
		add = append(add, graph.Edge{
			Src: graph.VertexID(rng.Intn(n)),
			Dst: graph.VertexID(rng.Intn(n)),
			W:   graph.Weight(1 + rng.Intn(8)),
		})
	}
	add = add.Canonicalize()
	return graph.NewPair(n, edges), add
}

// checkSharded verifies every shard count reproduces the reference.go
// oracle from scratch, incrementally, and from a dense full reseed —
// with and without a pinned plan.
func checkSharded(t *testing.T, g *graph.Pair, add graph.EdgeList, a algo.Algorithm, src graph.VertexID) {
	t.Helper()
	n := g.NumVertices()
	refBase := engine.Reference(g, a, src)
	og := delta.NewOverlayGraph(g, delta.NewOverlay(n, delta.NewBatch(add)))
	refInc := engine.Reference(og, a, src)
	base, _ := engine.Run(g, a, src, engine.Options{Mode: engine.Sync, Workers: 1})
	allSeeds := make([]graph.VertexID, n)
	for i := range allSeeds {
		allSeeds[i] = graph.VertexID(i)
	}
	for _, shards := range shardCounts {
		for _, pinned := range []bool{false, true} {
			opt := engine.Options{Workers: 4, Shards: shards}
			if pinned {
				p, ok := PlanFor(g, shards)
				if !ok {
					t.Fatalf("PlanFor failed on a Pair")
				}
				opt.ShardPlan = p.Starts()
			}
			label := fmt.Sprintf("%s shards=%d pinned=%v", a.Name(), shards, pinned)
			st, _ := Run(g, a, src, opt)
			if !engine.ValuesEqual(st, refBase) {
				t.Fatalf("%s: from-scratch values diverge", label)
			}
			st = base.Clone()
			IncrementalAdd(og, st, add, opt)
			if !engine.ValuesEqual(st, refInc) {
				t.Fatalf("%s: incremental-add values diverge", label)
			}
			st = base.Clone()
			Propagate(og, st, allSeeds, opt)
			if !engine.ValuesEqual(st, refInc) {
				t.Fatalf("%s: dense-reseed values diverge", label)
			}
		}
	}
}

func TestShardedDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		n := 30 + rng.Intn(400)
		m := n * (1 + rng.Intn(4))
		g, add := randomGraphAndBatch(rng, n, m, 1+rng.Intn(60))
		src := graph.VertexID(rng.Intn(n))
		for _, a := range algo.All() {
			checkSharded(t, g, add, a, src)
		}
	}
}

func TestShardedDifferentialLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large differential trial")
	}
	n, edges := gen.RMAT(gen.DefaultRMAT(13, 120_000, 11))
	g := graph.NewPair(n, edges)
	trs, err := gen.Stream(n, edges, gen.StreamConfig{Transitions: 1, Additions: 3000, Deletions: 0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	add := trs[0].Additions
	checkSharded(t, g, add, algo.BFS{}, 1)
	checkSharded(t, g, add, algo.SSSP{}, 1)
}

func TestPlanDegreeCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, _ := randomGraphAndBatch(rng, 1000, 8000, 0)
	for _, shards := range []int{1, 2, 3, 7, 16} {
		p, ok := PlanFor(g, shards)
		if !ok {
			t.Fatalf("PlanFor failed")
		}
		if p.Shards() != shards {
			t.Fatalf("want %d shards, got %d", shards, p.Shards())
		}
		if p.NumVertices() != g.NumVertices() {
			t.Fatalf("plan covers %d vertices, graph has %d", p.NumVertices(), g.NumVertices())
		}
		prev := graph.VertexID(0)
		for s := 0; s < shards; s++ {
			lo, hi := p.Range(s)
			if lo != prev || hi <= lo {
				t.Fatalf("shard %d range [%d,%d) broken (prev %d)", s, lo, hi, prev)
			}
			prev = hi
			for v := lo; v < hi; v += 1 + (hi-lo)/7 {
				if got := p.Owner(v); got != s {
					t.Fatalf("Owner(%d) = %d, want %d", v, got, s)
				}
			}
		}
	}
	// More shards than vertices: the plan clamps instead of emitting
	// empty ranges.
	tiny := graph.NewPair(3, graph.EdgeList{{Src: 0, Dst: 1, W: 1}}.Canonicalize())
	p, ok := PlanFor(tiny, 7)
	if !ok || p.Shards() > 3 {
		t.Fatalf("tiny plan: ok=%v shards=%d", ok, p.Shards())
	}
}

func TestShardedFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, _ := randomGraphAndBatch(rng, 50, 200, 0)
	ref := engine.Reference(g, algo.BFS{}, 0)
	// Shards=0 and Shards=1 must take the unsharded engine path.
	for _, shards := range []int{0, 1} {
		st, _ := Run(g, algo.BFS{}, 0, engine.Options{Shards: shards})
		if !engine.ValuesEqual(st, ref) {
			t.Fatalf("fallback shards=%d diverges", shards)
		}
	}
	// A bogus pinned plan (wrong vertex count) is ignored, not obeyed.
	st, _ := Run(g, algo.BFS{}, 0, engine.Options{
		Shards:    2,
		ShardPlan: []graph.VertexID{0, 10, 9999},
	})
	if !engine.ValuesEqual(st, ref) {
		t.Fatalf("bogus pinned plan diverges")
	}
}
