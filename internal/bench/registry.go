package bench

import "commongraph/internal/kickstarter"

// Experiment is a named runnable experiment.
type Experiment struct {
	Name  string // cgbench -exp name
	Paper string // the table/figure it regenerates
	Run   func(Params) (*Table, error)
}

// Experiments lists every regenerable table and figure, the ablations and
// the observability overhead gate.
func Experiments() []Experiment {
	return []Experiment{
		{Name: "fig1", Paper: "Figure 1", Run: Fig1},
		{Name: "table2", Paper: "Table 2", Run: Table2},
		{Name: "table4", Paper: "Table 4", Run: Table4},
		{Name: "table5", Paper: "Table 5", Run: Table5},
		{Name: "fig8", Paper: "Figure 8", Run: Fig8},
		{Name: "fig9", Paper: "Figure 9", Run: Fig9},
		{Name: "fig10", Paper: "Figure 10", Run: Fig10},
		{Name: "fig11", Paper: "Figure 11", Run: Fig11},
		{Name: "ablation-steiner", Paper: "Ablation A1", Run: AblationSteiner},
		{Name: "ablation-representation", Paper: "Ablation A3", Run: AblationRepresentation},
		{Name: "ablation-scale", Paper: "Ablation A4", Run: AblationScale},
		{Name: "ablation-baselines", Paper: "Ablation A5", Run: AblationBaselines},
		{Name: "obs-overhead", Paper: "Observability overhead gate", Run: ObsOverhead},
	}
}

// ByName returns the named experiment, or false.
func ByName(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// newMutableFromWorkload builds a KickStarter mutable graph from a
// workload's base snapshot (helper shared by ablations).
func newMutableFromWorkload(w *Workload) *kickstarter.MutableGraph {
	return kickstarter.NewMutableGraph(w.N, w.Base)
}
