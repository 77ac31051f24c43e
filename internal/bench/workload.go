package bench

import (
	"fmt"
	"sync"

	"commongraph/internal/gen"
	"commongraph/internal/graph"
	"commongraph/internal/snapshot"
)

// Workload is a ready evolving graph for one experiment configuration.
type Workload struct {
	GraphName string
	N         int
	Base      graph.EdgeList
	Store     *snapshot.Store
	Adds      int // additions per transition
	Dels      int // deletions per transition
}

// workloadKey identifies a cached workload.
type workloadKey struct {
	name        string
	sizeFactor  float64
	transitions int
	adds, dels  int
	seed        uint64
}

var (
	wlMu    sync.Mutex
	wlCache = map[workloadKey]*Workload{}
	wlOrder []workloadKey // LRU order, oldest first
	// base graphs are cached separately: they are the expensive part and
	// are shared across update configurations.
	baseCache = map[string]struct {
		n     int
		edges graph.EdgeList
	}{}
)

// maxWorkloads caps how many generated workloads stay resident: the
// figure sweeps create several multi-hundred-MB variants of the largest
// stand-in, and keeping them all alive can exhaust small machines.
const maxWorkloads = 5

// BuildWorkload generates (or returns cached) a stand-in evolving graph
// with the given per-transition update counts.
func BuildWorkload(name string, p Params, transitions, adds, dels int) (*Workload, error) {
	key := workloadKey{name: name, sizeFactor: p.SizeFactor, transitions: transitions, adds: adds, dels: dels, seed: p.Seed}
	wlMu.Lock()
	defer wlMu.Unlock()
	if w, ok := wlCache[key]; ok {
		for i, k := range wlOrder { // refresh LRU position
			if k == key {
				wlOrder = append(append(wlOrder[:i:i], wlOrder[i+1:]...), key)
				break
			}
		}
		return w, nil
	}
	s, ok := gen.ByName(name)
	if !ok {
		return nil, fmt.Errorf("bench: unknown stand-in graph %q", name)
	}
	baseKey := fmt.Sprintf("%s@%g", name, p.SizeFactor)
	b, ok := baseCache[baseKey]
	if !ok {
		b.n, b.edges = s.Build(p.SizeFactor)
		baseCache[baseKey] = b
	}
	trs, err := gen.Stream(b.n, b.edges, gen.StreamConfig{
		Transitions: transitions,
		Additions:   adds,
		Deletions:   dels,
		Seed:        p.Seed ^ uint64(transitions)<<32 ^ uint64(adds)<<16 ^ uint64(dels),
	})
	if err != nil {
		return nil, err
	}
	// The generator's streams are consistent by construction, so the
	// trusted bulk constructor skips NewVersion's per-transition
	// materialization (a large saving on multi-million-edge stand-ins).
	addBatches := make([]graph.EdgeList, len(trs))
	delBatches := make([]graph.EdgeList, len(trs))
	for i, tr := range trs {
		addBatches[i] = tr.Additions
		delBatches[i] = tr.Deletions
	}
	store, err := snapshot.NewStoreFromTransitions(b.n, b.edges, addBatches, delBatches)
	if err != nil {
		return nil, err
	}
	w := &Workload{GraphName: name, N: b.n, Base: b.edges, Store: store, Adds: adds, Dels: dels}
	wlCache[key] = w
	wlOrder = append(wlOrder, key)
	for len(wlOrder) > maxWorkloads {
		evict := wlOrder[0]
		wlOrder = wlOrder[1:]
		delete(wlCache, evict)
	}
	return w, nil
}
