package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// patchedCSR is a CSR together with the canonical list it must present.
type patchedCSR struct {
	c    *CSR
	want EdgeList
}

// csrPresents reports how c differs from NewPair(n, want), through every
// read a CSR offers: Edges, Rows, Degree, NumEdges, Lookup (each edge
// present and a probe that is not) and the in-edges of the pair it heads.
func csrPresents(c *CSR, n int, want EdgeList) error {
	ref := NewPair(n, want)
	if c.NumVertices() != n || c.NumEdges() != len(want) {
		return fmt.Errorf("shape (%d, %d), want (%d, %d)", c.NumVertices(), c.NumEdges(), n, len(want))
	}
	if got := c.Edges(); !reflect.DeepEqual(append(EdgeList{}, got...), append(EdgeList{}, want...)) {
		return fmt.Errorf("edges %v, want %v", got, want)
	}
	rows, refRows := c.Rows(), ref.Out.Rows()
	for u := 0; u < n; u++ {
		gt := rows.Targets[rows.Starts[u]:rows.Ends[u]]
		gw := rows.Weights[rows.Starts[u]:rows.Ends[u]]
		wt := refRows.Targets[refRows.Starts[u]:refRows.Ends[u]]
		ww := refRows.Weights[refRows.Starts[u]:refRows.Ends[u]]
		if !reflect.DeepEqual(append([]VertexID{}, gt...), append([]VertexID{}, wt...)) ||
			!reflect.DeepEqual(append([]Weight{}, gw...), append([]Weight{}, ww...)) {
			return fmt.Errorf("row %d: %v %v, want %v %v", u, gt, gw, wt, ww)
		}
		if c.Degree(VertexID(u)) != ref.Out.Degree(VertexID(u)) {
			return fmt.Errorf("degree of %d: %d, want %d", u, c.Degree(VertexID(u)), ref.Out.Degree(VertexID(u)))
		}
		if _, ok := c.Lookup(VertexID(u), VertexID(n)); ok {
			return fmt.Errorf("lookup (%d, %d) found a vertex past the graph", u, n)
		}
	}
	for _, e := range want {
		if w, ok := c.Lookup(e.Src, e.Dst); !ok || w != e.W {
			return fmt.Errorf("lookup %v = (%d, %v)", e, w, ok)
		}
	}
	type half struct {
		u VertexID
		w Weight
	}
	p := &Pair{Out: c}
	for v := 0; v < n; v++ {
		var got, exp []half
		p.InEdges(VertexID(v), func(u VertexID, w Weight) { got = append(got, half{u, w}) })
		ref.InEdges(VertexID(v), func(u VertexID, w Weight) { exp = append(exp, half{u, w}) })
		if !reflect.DeepEqual(got, exp) {
			return fmt.Errorf("in-row %d: %v, want %v", v, got, exp)
		}
	}
	return nil
}

// randomChange draws a canonical remove and add for list: some of its
// edges and some absent ones to remove, fresh edges, edges it has, and
// edges remove takes out to add back under another weight.
func randomChange(r *rand.Rand, n int, list EdgeList, size int) (remove, add EdgeList) {
	for i := 0; i < size && len(list) > 0; i++ {
		e := list[r.Intn(len(list))]
		remove = append(remove, e)
		switch r.Intn(4) {
		case 0:
			add = append(add, Edge{Src: e.Src, Dst: e.Dst, W: e.W + 1})
		case 1:
			add = append(add, list[r.Intn(len(list))])
		}
	}
	remove = append(remove, randomCanonical(r, n, size/4)...)
	add = append(add, randomCanonical(r, n, size)...)
	return remove.Canonicalize(), add.Canonicalize()
}

// TestPatchRowsMatchesRebuild patches a chain of CSRs with random changes
// — through several compactions and two branches, two patches off one
// predecessor — and holds every CSR, after every step, to NewPair of its
// list: the newest presents the patched list and none before it changed.
func TestPatchRowsMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(40)
		first := randomCanonical(r, n, 6*n)
		chain := []patchedCSR{{NewCSR(n, first), first}}
		compactions, branches := 0, 0
		for step := 0; step < 40; step++ {
			from := chain[len(chain)-1]
			if step%13 == 12 { // branch off an older CSR
				from = chain[len(chain)-2]
				branches++
			}
			remove, add := randomChange(r, n, from.want, 1+r.Intn(len(from.want)/6+1))
			c, st := PatchRows(from.c, remove, add)
			if st.Compacted {
				compactions++
			}
			want := Patch(from.want, remove, add)
			chain = append(chain, patchedCSR{c, want})
			for i, pc := range chain {
				if err := csrPresents(pc.c, n, pc.want); err != nil {
					t.Fatalf("seed %d step %d, CSR %d: %v", seed, step, i, err)
				}
			}
		}
		if compactions < 3 || branches < 2 {
			t.Fatalf("seed %d: %d compactions, %d branches; the test wants at least 3 and 2", seed, compactions, branches)
		}
	}
}

// TestPatchRowsSecondPatchCompacts pins the tail's claim: the first patch
// off a CSR with room writes into its tail, a second one off the same CSR
// copies instead, and the two successors see only their own rows.
func TestPatchRowsSecondPatchCompacts(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const n = 30
	first := randomCanonical(r, n, 200)
	remove, add := randomChange(r, n, first, 5)
	list := Patch(first, remove, add)
	base, st := PatchRows(NewCSR(n, first), remove, add)
	if !st.Compacted {
		t.Fatal("a patch off a fresh CSR, which has no tail, did not compact")
	}
	remove, add = randomChange(r, n, list, 5)
	a, sa := PatchRows(base, remove, add)
	b, sb := PatchRows(base, add, remove)
	if sa.Compacted || !sb.Compacted {
		t.Fatalf("compacted: first %v, second %v; want false, true", sa.Compacted, sb.Compacted)
	}
	for _, pc := range []patchedCSR{{base, list}, {a, Patch(list, remove, add)}, {b, Patch(list, add, remove)}} {
		if err := csrPresents(pc.c, n, pc.want); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPatchRowsConcurrentReaders walks every published CSR of a chain on
// reader goroutines while the chain keeps growing — branches included —
// on another. Under -race a write into a slot an older CSR can see fails.
func TestPatchRowsConcurrentReaders(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const n, readers, steps = 64, 3, 20
	list := randomCanonical(r, n, 1500)
	published := make([]chan patchedCSR, readers)
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := range published {
		published[i] = make(chan patchedCSR, steps+1)
		wg.Add(1)
		go func(in <-chan patchedCSR) {
			defer wg.Done()
			var seen []patchedCSR
			for pc := range in {
				seen = append(seen, pc)
				for _, old := range seen { // walk every predecessor again
					sum := 0
					rows := old.c.Rows()
					for u := 0; u < n; u++ {
						for p := rows.Starts[u]; p < rows.Ends[u]; p++ {
							sum += int(rows.Targets[p]) + int(rows.Weights[p])
						}
					}
					want := 0
					for _, e := range old.want {
						want += int(e.Dst) + int(e.W)
					}
					if sum != want {
						errs <- fmt.Errorf("a CSR of %d edges changed under a reader", len(old.want))
						return
					}
				}
			}
		}(published[i])
	}
	chain := []patchedCSR{{NewCSR(n, list), list}}
	publish := func(pc patchedCSR) {
		for _, ch := range published {
			ch <- pc
		}
	}
	publish(chain[0])
	for step := 0; step < steps; step++ {
		from := chain[len(chain)-1]
		if step%5 == 4 {
			from = chain[len(chain)-2]
		}
		remove, add := randomChange(r, n, from.want, 40)
		c, _ := PatchRows(from.c, remove, add)
		pc := patchedCSR{c, Patch(from.want, remove, add)}
		chain = append(chain, pc)
		publish(pc)
	}
	for _, ch := range published {
		close(ch)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
