// Fixture for the csrimmutable analyzer: a miniature of
// internal/graph's CSR with its constructor allowlist, plus seeded
// post-construction mutations that must be flagged.
package graph

type VertexID uint32

type Weight int32

type CSR struct {
	n            int
	starts, ends []int32
	targets      []VertexID
	weights      []Weight
}

func NewCSR(n, m int) *CSR {
	c := &CSR{n: n}
	c.starts = make([]int32, n) // constructor: allowed
	for i := 0; i < m; i++ {
		c.targets = append(c.targets, 0) // constructor: allowed
		c.weights = append(c.weights, 1) // constructor: allowed
	}
	return c
}

func buildCSR(n int) *CSR {
	c := &CSR{}
	c.n = n // constructor: allowed
	return c
}

func (c *CSR) Degree(u VertexID) int {
	return int(c.ends[u] - c.starts[u]) // read: allowed
}

func Grow(c *CSR, v VertexID) {
	c.targets = append(c.targets, v) // want `append to graph\.CSR field "targets"`
}

func (c *CSR) SetWeight(i int, w Weight) {
	c.weights[i] = w // want `write to graph\.CSR field "weights"`
}

func Patch(c *CSR) {
	c.ends[0]++ // want `write to graph\.CSR field "ends"`
}

func Overwrite(c *CSR, src *CSR) {
	copy(c.targets, src.targets) // want `copy into graph\.CSR field "targets"`
}

func Rebind(c *CSR) {
	c.starts = nil // want `write to graph\.CSR field "starts"`
}
