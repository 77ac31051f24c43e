package graph

import "fmt"

// Stats summarizes a graph's shape; used by the benchmark harness to print
// the Table 2 analogue for the generated stand-in graphs.
type Stats struct {
	Name      string
	Vertices  int
	Edges     int
	AvgDegree float64
	MaxOutDeg int
	MaxInDeg  int
	Isolated  int // vertices with no in- or out-edges
}

// ComputeStats scans an edge list.
func ComputeStats(name string, n int, edges EdgeList) Stats {
	outDeg := make([]int, n)
	inDeg := make([]int, n)
	for _, e := range edges {
		outDeg[e.Src]++
		inDeg[e.Dst]++
	}
	s := Stats{Name: name, Vertices: n, Edges: len(edges)}
	if n > 0 {
		s.AvgDegree = float64(len(edges)) / float64(n)
	}
	for v := 0; v < n; v++ {
		if outDeg[v] > s.MaxOutDeg {
			s.MaxOutDeg = outDeg[v]
		}
		if inDeg[v] > s.MaxInDeg {
			s.MaxInDeg = inDeg[v]
		}
		if outDeg[v] == 0 && inDeg[v] == 0 {
			s.Isolated++
		}
	}
	return s
}

// String renders the stats as one table row.
func (s Stats) String() string {
	return fmt.Sprintf("%-10s |V|=%-9d |E|=%-10d avg-deg=%-7.2f max-out=%-6d max-in=%-6d isolated=%d",
		s.Name, s.Vertices, s.Edges, s.AvgDegree, s.MaxOutDeg, s.MaxInDeg, s.Isolated)
}
