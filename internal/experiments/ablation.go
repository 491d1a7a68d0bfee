package experiments

import (
	"fmt"

	"idicn/internal/sim"
)

// AblationRow is one universe size of the warmth ablation: the five designs'
// latency improvements plus the headline ICN-NR over EDGE gap.
type AblationRow struct {
	Objects         int
	RequestsPerLeaf float64
	Improvements    map[string]sim.Improvement
	NRvsEdge        sim.Improvement
}

// AblationObjectUniverse sweeps the simulated object-universe size on the
// sweep topology and reports each design's improvement. This quantifies the
// central calibration sensitivity of the reproduction: the ICN-NR over EDGE
// gap depends strongly on workload "warmth" (requests per leaf relative to
// the universe). Colder workloads — each leaf seeing only a sliver of the
// universe — inflate nearest-replica routing's advantage, because edge
// caches are never exercised on the content they would eventually hold,
// while replicas elsewhere in the network are reachable at zero lookup
// cost. The paper's reported single-digit gaps correspond to the warm end
// of this sweep.
// Not a Knob sweep: each point reports all five designs, not just the gap.
func AblationObjectUniverse(p Params, universes []int) ([]AblationRow, error) {
	if universes == nil {
		requests, _ := p.workloadSize()
		universes = []int{requests / 15, requests / 60, requests / 360, requests / 1800}
	}
	tp := p.sweepTopology()
	sets := make([]sim.DesignSet, len(universes))
	for i, o := range universes {
		if o < 50 {
			o = 50
		}
		pc := p
		pc.Objects = o
		cfg, reqs := pc.Workload(tp)
		sets[i] = sim.DesignSet{Base: cfg, Designs: sim.BaselineDesigns(), Reqs: reqs}
	}
	batches, err := sim.CompareSets(sets, p.simOptions())
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, 0, len(universes))
	for i, results := range batches {
		cfg := sets[i].Base
		row := AblationRow{
			Objects:         cfg.Objects,
			Improvements:    make(map[string]sim.Improvement, len(results)),
			RequestsPerLeaf: float64(len(sets[i].Reqs)) / float64(cfg.Network.PoPs()*cfg.Network.LeavesPerTree()),
		}
		for _, r := range results {
			row.Improvements[r.Design.Name] = r.Improvement
		}
		row.NRvsEdge = sim.Gap(row.Improvements[sim.ICNNR.Name], row.Improvements[sim.EDGE.Name])
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatAblation renders the warmth ablation.
func FormatAblation(rows []AblationRow) string {
	return table("Objects\tReqs/leaf\tICN-SP\tICN-NR\tEDGE\tEDGE-Coop\tEDGE-Norm\tNR-EDGE gap", rows, func(r AblationRow) string {
		line := fmt.Sprintf("%d\t%.0f", r.Objects, r.RequestsPerLeaf)
		for _, d := range sim.BaselineDesigns() {
			line += fmt.Sprintf("\t%.1f", r.Improvements[d.Name].Latency)
		}
		return line + fmt.Sprintf("\t%.1f", r.NRvsEdge.Latency)
	})
}
