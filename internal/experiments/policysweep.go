package experiments

import "idicn/internal/sim"

// PolicySweepRow is one (policy, design) cell of the cache-policy sweep: the
// percent improvement over no caching on the three metrics, with every
// provisioned cache in the network running the row's policy.
type PolicySweepRow struct {
	Policy string
	Design string
	Imp    sim.Improvement
}

// PolicySweep crosses the cache-policy zoo with the five representative
// placement x routing designs on the standard sweep workload. It answers the
// deployment question behind the zoo: does a smarter replacement or
// admission policy change the paper's placement story, or does the
// EDGE-vs-ICN ranking survive the policy choice? Each policy gets its own
// design set (same workload, independent caches), and all runs — one
// baseline plus five designs per policy — fan across a single parallel
// batch.
func PolicySweep(p Params) ([]PolicySweepRow, error) {
	policies := sim.CachePolicies()
	sets := make([]sim.DesignSet, len(policies))
	for i, pol := range policies {
		pp := p
		pp.Policy = pol
		cfg, reqs := pp.Workload(p.sweepTopology())
		sets[i] = sim.DesignSet{Base: cfg, Designs: sim.BaselineDesigns(), Reqs: reqs}
	}
	results, err := sim.CompareSets(sets, p.simOptions())
	if err != nil {
		return nil, err
	}
	rows := make([]PolicySweepRow, 0, len(policies)*len(sim.BaselineDesigns()))
	for i, pol := range policies {
		for _, r := range results[i] {
			rows = append(rows, PolicySweepRow{Policy: pol.String(), Design: r.Design.Name, Imp: r.Improvement})
		}
	}
	return rows, nil
}

// FormatPolicySweep renders the policy sweep grouped by policy, one line per
// design with the three improvement percentages.
func FormatPolicySweep(rows []PolicySweepRow) string {
	return table("Policy\tDesign\tLatency%\tCongestion%\tOriginLoad%", rows, func(r PolicySweepRow) string {
		return r.Policy + "\t" + r.Design + impCells(r.Imp)
	})
}
