// Package bench regenerates every table and figure of the paper's
// evaluation (§5) plus the motivating Figure 1 and the design ablations,
// on synthetic stand-in workloads, and holds the flight recorder's
// overhead gate. Each experiment is a function returning a Table that
// cmd/cgbench prints; tests call the same functions with tiny parameters.
package bench

import (
	"os"
	"strconv"

	"commongraph/internal/graph"
)

// Params scales every experiment. The defaults reproduce the paper's
// setups at 1/100 update scale on the Table 2 stand-in graphs, sized for a
// laptop; COMMONGRAPH_SCALE multiplies both graph and batch sizes.
type Params struct {
	// SizeFactor multiplies stand-in graph sizes (≥ 1).
	SizeFactor float64 `json:"size_factor"`
	// UpdateScale converts the paper's batch sizes to ours
	// (75,000 edges → 75,000 × UpdateScale).
	UpdateScale float64 `json:"update_scale"`
	// Snapshots is the window length for Table 4-style runs (paper: 50).
	Snapshots int `json:"snapshots"`
	// Source is the query source vertex.
	Source uint32 `json:"source"`
	// Seed namespaces the experiment's workloads.
	Seed uint64 `json:"seed"`
}

// Default returns the standard experiment scale, honouring the
// COMMONGRAPH_SCALE environment variable (a float ≥ 1 multiplying sizes).
//
// The base point is 1/25 of the paper's update scale on 4×-sized stand-in
// graphs: large enough that the baseline's graph-size-dependent costs
// (trimming cascades, mutation) are realistically expensive relative to
// addition streaming — see EXPERIMENTS.md for the scale sensitivity.
func Default() Params {
	p := Params{
		SizeFactor:  4,
		UpdateScale: 0.04,
		Snapshots:   50,
		Source:      0,
		Seed:        0xC0FFEE,
	}
	if v := os.Getenv("COMMONGRAPH_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f >= 1 {
			p.SizeFactor *= f
			p.UpdateScale *= f
		}
	}
	return p
}

// Tiny returns a miniature parameter set for unit tests of the harness.
func Tiny() Params {
	return Params{SizeFactor: 1, UpdateScale: 0.001, Snapshots: 6, Source: 0, Seed: 0xDECAF}
}

// src returns the source vertex as a graph.VertexID.
func (p Params) src() graph.VertexID { return graph.VertexID(p.Source) }

// Batch converts one of the paper's batch sizes into this run's size,
// with a floor of 10 updates.
func (p Params) Batch(paperSize int) int {
	b := int(float64(paperSize) * p.UpdateScale)
	if b < 10 {
		b = 10
	}
	return b
}
