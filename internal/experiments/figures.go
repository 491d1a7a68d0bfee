package experiments

import (
	"idicn/internal/sim"
	"idicn/internal/topo"
	"idicn/internal/treemodel"
)

// Figure2Row is one curve point of the paper's Figure 2: the fraction of
// requests served at each level of a 6-level binary tree under the optimal
// static placement.
type Figure2Row struct {
	Alpha     float64
	Fractions []float64 // index i = level i+1; last entry is the origin
}

// Figure2 reproduces the §2.2 analytical result for alpha in {0.7, 1.1,
// 1.5}: intermediate levels add little beyond the edge and the origin.
func Figure2() []Figure2Row {
	rows := make([]Figure2Row, 0, 3)
	for _, alpha := range []float64{0.7, 1.1, 1.5} {
		cfg := treemodel.Config{
			Arity: 2, Levels: 6, SlotsPerNode: 500, Objects: 10000, Alpha: alpha,
		}
		rows = append(rows, Figure2Row{Alpha: alpha, Fractions: cfg.LevelFractions()})
	}
	return rows
}

// FigureRow is one (topology, design) cell of Figures 6 and 7: the percent
// improvement over no caching on the three metrics.
type FigureRow struct {
	Topology string
	Design   string
	Imp      sim.Improvement
}

// Figure6 runs the five representative designs over all eight topologies
// with population-proportional budgets and origins (paper Figure 6).
func Figure6(p Params) ([]FigureRow, error) {
	p.BudgetPolicy = sim.BudgetProportional
	p.OriginProportional = true
	return designsOverTopologies(p)
}

// Figure7 is Figure 6 with uniform budgets and origin assignment
// (paper Figure 7).
func Figure7(p Params) ([]FigureRow, error) {
	p.BudgetPolicy = sim.BudgetUniform
	p.OriginProportional = false
	return designsOverTopologies(p)
}

func designsOverTopologies(p Params) ([]FigureRow, error) {
	// All topologies x all designs (plus one baseline per topology) go into
	// a single parallel batch: 8 x (5+1) = 48 independent runs.
	tops := topo.AllTopologies()
	sets := make([]sim.DesignSet, len(tops))
	for i, tp := range tops {
		cfg, reqs := p.Workload(tp)
		sets[i] = sim.DesignSet{Base: cfg, Designs: sim.BaselineDesigns(), Reqs: reqs}
	}
	results, err := sim.CompareSets(sets, p.simOptions())
	if err != nil {
		return nil, err
	}
	var rows []FigureRow
	for i, tp := range tops {
		for _, r := range results[i] {
			rows = append(rows, FigureRow{Topology: tp.Name, Design: r.Design.Name, Imp: r.Improvement})
		}
	}
	return rows, nil
}

// Figure10 bridges the best-case gap with simple EDGE extensions: a second
// caching level, sibling cooperation, normalized budgets, their combinations
// and a doubled budget, plus the Section-4 baseline and an infinite-budget
// reference. The paper finds Norm-Coop brings the best case down to ~6% and
// Double-Budget-Coop makes EDGE win outright.
// Not a Knob sweep: seven EDGE variants share one ICN-NR run on one workload.
func Figure10(p Params) ([]SweepRow, error) {
	best := BestCaseParams(p)
	cfg, reqs := best.Workload(best.sweepTopology())

	variants := []sim.Design{
		{Name: "Baseline", Placement: sim.PlacementEdge, Routing: sim.RouteShortestPath},
		{Name: "2-Levels", Placement: sim.PlacementEdgeLevels, EdgeLevels: 2, Routing: sim.RouteShortestPath},
		{Name: "Coop", Placement: sim.PlacementEdge, Routing: sim.RouteShortestPath, SiblingCoop: true},
		{Name: "2-Levels-Coop", Placement: sim.PlacementEdgeLevels, EdgeLevels: 2, Routing: sim.RouteShortestPath, SiblingCoop: true},
		{Name: "Norm", Placement: sim.PlacementEdge, Routing: sim.RouteShortestPath, NormalizeBudget: true},
		{Name: "Norm-Coop", Placement: sim.PlacementEdge, Routing: sim.RouteShortestPath, SiblingCoop: true, NormalizeBudget: true},
		{Name: "Double-Budget-Coop", Placement: sim.PlacementEdge, Routing: sim.RouteShortestPath, SiblingCoop: true, NormalizeBudget: true, ExtraBudget: 2},
	}
	// One parallel batch covers the main variant comparison plus the two
	// reference configurations (Section-4 and Inf-Budget).
	sec4Cfg, sec4Reqs := p.Workload(p.sweepTopology())
	inf := best
	inf.BudgetFraction = 1
	infCfg, infReqs := inf.Workload(inf.sweepTopology())
	sets := []sim.DesignSet{
		{Base: cfg, Designs: append([]sim.Design{sim.ICNNR}, variants...), Reqs: reqs},
		{Base: sec4Cfg, Designs: []sim.Design{sim.ICNNR, sim.EDGE}, Reqs: sec4Reqs},
		{Base: infCfg, Designs: []sim.Design{sim.ICNNR, sim.EDGE}, Reqs: infReqs},
	}
	results, err := sim.CompareSets(sets, p.simOptions())
	if err != nil {
		return nil, err
	}
	nr := results[0][0].Improvement
	rows := make([]SweepRow, 0, len(variants)+2)
	for _, r := range results[0][1:] {
		rows = append(rows, SweepRow{Name: r.Design.Name, Gap: sim.Gap(nr, r.Improvement)})
	}
	// Section-4 reference: the gap under the original §4 configuration.
	rows = append(rows, SweepRow{Name: "Section-4", Gap: sim.Gap(results[1][0].Improvement, results[1][1].Improvement)})
	// Inf-Budget reference: both designs with effectively infinite caches.
	rows = append(rows, SweepRow{Name: "Inf-Budget", Gap: sim.Gap(results[2][0].Improvement, results[2][1].Improvement)})
	return rows, nil
}
