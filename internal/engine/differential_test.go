package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"commongraph/internal/algo"
	"commongraph/internal/delta"
	"commongraph/internal/gen"
	"commongraph/internal/graph"
)

// engineVariant is one way the engine drives a seeded frontier to
// fixpoint, called directly so a test can pick it whatever the input.
type engineVariant struct {
	name string
	run  func(g delta.Graph, st *State, seed *frontier) Stats
}

// engineVariants is the matrix every differential check runs against:
// sequential and parallel sync passes (hybrid frontier + work stealing),
// the async drain, and the input policy that chooses between them. Small
// graphs exercise the sequential fast paths; the large trials push
// iterations over the parallel cutoffs.
func engineVariants() []engineVariant {
	return []engineVariant{
		{"sync×1", func(g delta.Graph, st *State, seed *frontier) Stats { return runSync(st, seed, g.OutRows(), 1) }},
		{"sync×4", func(g delta.Graph, st *State, seed *frontier) Stats { return runSync(st, seed, g.OutRows(), 4) }},
		{"async", func(g delta.Graph, st *State, seed *frontier) Stats { return runAsync(st, seed, g.OutRows()) }},
		{"policy", func(g delta.Graph, st *State, seed *frontier) Stats {
			return propagate(g, st, seed, Options{Workers: 4})
		}},
	}
}

// frontierOf seeds a frontier over n vertices with vs.
func frontierOf(n int, vs ...graph.VertexID) *frontier {
	f := newFrontier(n)
	for _, v := range vs {
		f.setSeq(v)
	}
	return f
}

// solve is Run through the variant.
func (x engineVariant) solve(g delta.Graph, a algo.Algorithm, src graph.VertexID) (*State, Stats) {
	st := NewState(g.NumVertices(), a, src)
	return st, x.run(g, st, frontierOf(g.NumVertices(), src))
}

// add is IncrementalAdd through the variant.
func (x engineVariant) add(g delta.Graph, st *State, batch graph.EdgeList) Stats {
	seed, stats := seedParts(st, [][]graph.Edge{batch}, len(batch))
	if seed != nil {
		stats.Add(x.run(g, st, seed))
	}
	return stats
}

// randomGraphAndBatch builds a random base graph and a random addition
// batch over the same vertex set.
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
	// Duplicates between add and base become parallel edges in the overlay
	// view; the oracle traverses the same view, so they are harmless.
	add = add.Canonicalize()
	return graph.NewPair(n, edges), add
}

// checkAllVariants verifies every engine variant reproduces the oracle
// from scratch, incrementally (sparse seeds), and from a dense full
// reseed over the overlay view.
func checkAllVariants(t *testing.T, g *graph.Pair, add graph.EdgeList, a algo.Algorithm, src graph.VertexID) {
	t.Helper()
	n := g.NumVertices()
	refBase := Reference(g, a, src)
	og := delta.NewOverlayGraph(g, delta.NewOverlay(n, delta.NewBatch(add)))
	refInc := Reference(og, a, src)
	base, _ := Run(g, a, src, Options{Workers: 1})
	if !ValuesEqual(base, refBase) {
		t.Fatalf("%s: baseline sync run diverges from oracle", a.Name())
	}
	allSeeds := make([]graph.VertexID, n)
	for i := range allSeeds {
		allSeeds[i] = graph.VertexID(i)
	}
	for _, x := range engineVariants() {
		// From scratch (sparse single-vertex seed growing to dense).
		st, _ := x.solve(g, a, src)
		if !ValuesEqual(st, refBase) {
			t.Fatalf("%s %s: from-scratch values diverge", a.Name(), x.name)
		}
		// Incremental addition (sparse seeds = batch endpoints).
		st = base.Clone()
		x.add(og, st, add)
		if !ValuesEqual(st, refInc) {
			t.Fatalf("%s %s: incremental-add values diverge", a.Name(), x.name)
		}
		// Dense reseed: every vertex seeded at once over the overlay view
		// (the shape of a trim re-propagation that invalidated widely).
		st = base.Clone()
		x.run(og, st, frontierOf(n, allSeeds...))
		if !ValuesEqual(st, refInc) {
			t.Fatalf("%s %s: dense-reseed values diverge", a.Name(), x.name)
		}
	}
}

// TestDifferentialRandom cross-checks the hybrid engine against the
// Reference oracle on random graphs and batches, every algorithm times
// the full scheduler matrix. Runs under -race in CI (make race), which is
// what pins the parallel sync chunking.
func TestDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(0xC0))
	for trial := 0; trial < 5; trial++ {
		n := 48 + rng.Intn(200)
		m := n * (2 + rng.Intn(4))
		g, add := randomGraphAndBatch(rng, n, m, 1+rng.Intn(n))
		src := graph.VertexID(rng.Intn(n))
		for _, a := range algo.All() {
			checkAllVariants(t, g, add, a, src)
		}
	}
}

// TestDifferentialLarge runs the same cross-check on one power-law graph
// big enough that sync iterations cross the parallel work-stealing
// cutoffs (edge-space chunking, dense word chunking) rather than taking
// the sequential fast path.
func TestDifferentialLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large differential skipped in -short")
	}
	n, edges := gen.RMAT(gen.DefaultRMAT(13, 120_000, 11))
	g := graph.NewPair(n, edges)
	trs, err := gen.Stream(n, edges, gen.StreamConfig{Transitions: 1, Additions: 3000, Deletions: 0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	add := trs[0].Additions
	for _, a := range []algo.Algorithm{algo.BFS{}, algo.SSSP{}, algo.SSWP{}} {
		checkAllVariants(t, g, add, a, 0)
	}
}

// FuzzEngineDifferential is the native fuzz entry: the fuzzer picks the
// shape bytes, the test derives a deterministic graph + batch from them
// and requires every engine variant to match the oracle.
func FuzzEngineDifferential(f *testing.F) {
	f.Add(int64(1), uint8(64), uint8(3), uint8(10))
	f.Add(int64(77), uint8(200), uint8(5), uint8(100))
	f.Add(int64(0xBEEF), uint8(16), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nByte, degByte, batchByte uint8) {
		n := 8 + int(nByte)
		deg := 1 + int(degByte%6)
		batch := 1 + int(batchByte)
		rng := rand.New(rand.NewSource(seed))
		g, add := randomGraphAndBatch(rng, n, n*deg, batch)
		src := graph.VertexID(rng.Intn(n))
		// One cheap and one weighted algorithm keep the fuzz iteration
		// fast; the full five run in TestDifferentialRandom.
		for _, a := range []algo.Algorithm{algo.BFS{}, algo.SSSP{}} {
			checkAllVariants(t, g, add, a, src)
		}
	})
}

// TestParallelMatchesSequentialStats sanity-checks that the parallel
// variants do the same logical work: EdgesPushed of a deterministic sync
// pass is schedule-independent (each iteration pushes exactly the
// frontier's out-edges).
func TestParallelMatchesSequentialStats(t *testing.T) {
	n, edges := gen.RMAT(gen.DefaultRMAT(12, 60_000, 9))
	g := graph.NewPair(n, edges)
	_, seq := Run(g, algo.BFS{}, 0, Options{Workers: 1})
	_, par := Run(g, algo.BFS{}, 0, Options{Workers: 4})
	if seq.Iterations != par.Iterations {
		t.Fatalf("iterations differ: seq %d par %d", seq.Iterations, par.Iterations)
	}
	if seq.EdgesPushed == 0 {
		t.Fatal("no edges pushed")
	}
}

// TestChecksumEqualAcrossVariants pins determinism of final values (and
// hence checksums) across the scheduler matrix on a skewed graph.
func TestChecksumEqualAcrossVariants(t *testing.T) {
	n, edges := gen.RMAT(gen.DefaultRMAT(12, 60_000, 4))
	g := graph.NewPair(n, edges)
	for _, a := range algo.All() {
		var want string
		for vi, x := range engineVariants() {
			st, _ := x.solve(g, a, 0)
			sum := fmt.Sprintf("%v", st.Values()[:64])
			if vi == 0 {
				want = sum
			} else if sum != want {
				t.Fatalf("%s %s: values differ from %s", a.Name(), x.name, engineVariants()[0].name)
			}
		}
	}
}

// TestIterationShapesAgree solves from scratch four times, forcing one
// iteration shape at every level — sparse or dense frontier, on the
// calling goroutine (plain stores) or on workers (CAS) — whichever one
// seqEdgeCutoff would have picked. Levels may differ between shapes (a
// sequential level sees its own improvements); every shape must push each
// level's whole frontier and reach the reference fixpoint.
func TestIterationShapesAgree(t *testing.T) {
	n, edges := gen.RMAT(gen.DefaultRMAT(11, 30_000, 13))
	g := graph.NewPair(n, edges)
	layers := g.OutRows()
	shapes := map[string]func(r *syncRunner, list []graph.VertexID, prefix []int, dense *frontier) (int64, int64){
		"sparseSeq": func(r *syncRunner, list []graph.VertexID, _ []int, _ *frontier) (int64, int64) {
			return r.sparseSeq(list)
		},
		"sparsePar": func(r *syncRunner, list []graph.VertexID, prefix []int, _ *frontier) (int64, int64) {
			return r.sparsePar(list, prefix, prefix[len(list)])
		},
		"denseSeq": func(r *syncRunner, _ []graph.VertexID, _ []int, dense *frontier) (int64, int64) {
			return r.denseSeq(dense)
		},
		"densePar": func(r *syncRunner, _ []graph.VertexID, _ []int, dense *frontier) (int64, int64) {
			return r.densePar(dense)
		},
	}
	for _, a := range []algo.Algorithm{algo.BFS{}, algo.SSSP{}, algo.SSWP{}} {
		ref := Reference(g, a, 0)
		for name, shape := range shapes {
			st := NewState(n, a, 0)
			cur := newFrontier(n)
			cur.setSeq(0)
			for level := 0; !cur.empty(); level++ {
				var list []graph.VertexID
				cur.forEachInWordRange(0, cur.words(), func(v graph.VertexID) { list = append(list, v) })
				prefix := make([]int, len(list)+1)
				dense := newFrontier(n)
				for i, u := range list {
					prefix[i+1] = prefix[i] + degree(layers, u)
					dense.setSeq(u)
				}
				dense.drop()
				r := &syncRunner{st: st, alg: a, id: a.Identity(), min: st.minimize(),
					layers: layers, workers: 3, next: newFrontier(n)}
				if pushed, _ := shape(r, list, prefix, dense); pushed != int64(prefix[len(list)]) {
					t.Fatalf("%s %s level %d: pushed %d of %d frontier edges", a.Name(), name, level, pushed, prefix[len(list)])
				}
				cur = r.next
			}
			if !ValuesEqual(st, ref) {
				t.Fatalf("%s: a solve of %s iterations differs from the reference", a.Name(), name)
			}
		}
	}
}
