package experiments

import (
	"idicn/internal/sim"
	"idicn/internal/treemodel"
)

// DepthProfile reports where requests were served, by tree depth, for one
// design — the simulated counterpart of the paper's analytical Figure 2.
type DepthProfile struct {
	Design string
	// Fractions[d] is the share served at tree depth d (leaves are the
	// highest depth); the final entry is the origin's share.
	Fractions []float64
	// HitRatio[i] is the cumulative hit ratio through level i+1: the share
	// of requests a hierarchy truncated at that level would have served
	// from caches. See HitRatioByDepth.
	HitRatio []float64
}

// HitRatioByDepth converts level fractions (edge level first, origin last)
// into cumulative hit ratios: entry i is the fraction of requests served at
// levels 1..i+1. The final entry is the total cache hit ratio, 1 minus the
// origin's share.
func HitRatioByDepth(fractions []float64) []float64 {
	if len(fractions) == 0 {
		return nil
	}
	out := make([]float64, len(fractions)-1)
	cum := 0.0
	for i := range out {
		cum += fractions[i]
		out[i] = cum
	}
	return out
}

// ServeDepthProfile runs ICN-SP and EDGE on the standard workload and
// returns, per design, the fraction of requests served at each tree depth.
// Alongside it returns the §2.2 analytical prediction for a tree of the
// same arity and depth with per-node caches of BudgetFraction of the
// universe, so simulation and model can be compared directly.
// Not a Knob sweep: it reports serve depths per design, not the NR-over-EDGE gap.
func ServeDepthProfile(p Params) (profiles []DepthProfile, analytic []float64, err error) {
	tp := p.sweepTopology()
	cfg, reqs := p.Workload(tp)
	for _, d := range []sim.Design{sim.ICNSP, sim.EDGE} {
		res, err := sim.RunConfig(d.Apply(cfg), reqs)
		if err != nil {
			return nil, nil, err
		}
		fr := make([]float64, len(res.ServedAtDepth))
		for i, c := range res.ServedAtDepth {
			fr[i] = float64(c) / float64(res.Requests)
		}
		// Reorder so leaves come first (matching Figure 2's level 1 = edge):
		// engine indexes by depth with origin last; flip the cache depths.
		flipped := make([]float64, len(fr))
		cacheLevels := len(fr) - 1
		for d := 0; d < cacheLevels; d++ {
			flipped[cacheLevels-1-d] = fr[d]
		}
		flipped[cacheLevels] = fr[cacheLevels]
		profiles = append(profiles, DepthProfile{
			Design:    d.Name,
			Fractions: flipped,
			HitRatio:  HitRatioByDepth(flipped),
		})
	}

	slots := int(p.BudgetFraction * float64(cfg.Objects))
	if slots < 1 {
		slots = 1
	}
	// The access tree has Depth+1 caching levels (leaves at depth Depth down
	// to the PoP root at depth 0); the model adds the origin as one level
	// above, so its level count is Depth+2 and its last fraction aligns with
	// the simulator's origin column.
	model := treemodel.Config{
		Arity:        p.Arity,
		Levels:       p.Depth + 2,
		SlotsPerNode: slots,
		Objects:      cfg.Objects,
		Alpha:        p.Alpha,
	}
	return profiles, model.LevelFractions(), nil
}

// FormatDepthProfile renders the simulated and analytical level fractions.
func FormatDepthProfile(profiles []DepthProfile, analytic []float64) string {
	levels := 0
	for _, p := range profiles {
		levels = max(levels, len(p.Fractions))
	}
	type line struct {
		name string
		fr   []float64
	}
	var lines []line
	for _, p := range profiles {
		lines = append(lines, line{p.Design + " (sim)", p.Fractions})
	}
	lines = append(lines, line{"optimal (model)", analytic})
	// Cumulative hit ratios: how much of the traffic a hierarchy truncated
	// at each level absorbs (the last column is the total cache hit ratio).
	for _, p := range profiles {
		if len(p.HitRatio) > 0 {
			lines = append(lines, line{p.Design + " (hit<=L)", p.HitRatio})
		}
	}
	return table("Source"+levelColumns(levels)+"\torigin", lines, func(l line) string { return l.name + cells(l.fr) })
}
