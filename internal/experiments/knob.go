package experiments

import (
	"math/rand"
	"strconv"

	"idicn/internal/sim"
	"idicn/internal/trace"
)

// Knob is one of §5's one-parameter-at-a-time sensitivity sweeps around the
// §4 base point, as data: Label heads the row-label column and each point
// says how it departs from the base. Sweep runs a knob; the constructors
// below are the paper's knobs and the repo's own ablations.
type Knob struct {
	Label  string
	Points []KnobPoint
}

// KnobPoint is one row of a Knob sweep.
type KnobPoint struct {
	Name string  // row label (FormatNamedGaps)
	X    float64 // x-axis position (FormatSweep)

	// Params edits the workload parameters; the point then runs on a
	// workload rebuilt from them. Points without one share a single
	// workload built from the base Params.
	Params func(*Params)
	// Config edits the point's built simulator config; p is the point's
	// Params.
	Config func(p Params, cfg *sim.Config)
	// Versus is the design ICN-NR is measured against; the zero value
	// means sim.EDGE.
	Versus sim.Design
}

// SweepRow is one row of a sweep: the point's label and x position, and the
// ICN-NR over EDGE gap there on the three metrics.
type SweepRow struct {
	Name string
	X    float64
	Gap  sim.Improvement
}

// Sweep measures RelImprov(ICN-NR) - RelImprov(EDGE), the §5 sensitivity
// measure, at every point of k on the sweep topology, all in one parallel
// batch, and returns one row per point in order.
func Sweep(p Params, k Knob) ([]SweepRow, error) {
	var baseCfg sim.Config
	var baseReqs []sim.Request
	cases := make([]gapCase, len(k.Points))
	for i, pt := range k.Points {
		pc := p
		c := gapCase{versus: pt.Versus}
		if pt.Params != nil {
			pt.Params(&pc)
			c.cfg, c.reqs = pc.Workload(pc.sweepTopology())
		} else {
			if baseReqs == nil {
				baseCfg, baseReqs = p.Workload(p.sweepTopology())
			}
			c.cfg, c.reqs = baseCfg, baseReqs
		}
		if pt.Config != nil {
			pt.Config(pc, &c.cfg)
		}
		if c.versus.Name == "" {
			c.versus = sim.EDGE
		}
		cases[i] = c
	}
	gaps, err := gapBatch(cases, p.simOptions())
	if err != nil {
		return nil, err
	}
	rows := make([]SweepRow, len(k.Points))
	for i, pt := range k.Points {
		rows[i] = SweepRow{Name: pt.Name, X: pt.X, Gap: gaps[i]}
	}
	return rows, nil
}

// gapCase is one point of a sensitivity sweep: the workload plus the design
// ICN-NR is measured against.
type gapCase struct {
	versus sim.Design
	cfg    sim.Config
	reqs   []sim.Request
}

// gapBatch evaluates RelImprov(ICN-NR) - RelImprov(versus) for every case,
// fanning all runs (baseline, ICN-NR, versus per case) across the parallel
// runner in one batch. Results are ordered and deterministic regardless of
// worker count.
func gapBatch(cases []gapCase, opt sim.Options) ([]sim.Improvement, error) {
	sets := make([]sim.DesignSet, len(cases))
	for i, c := range cases {
		sets[i] = sim.DesignSet{Base: c.cfg, Designs: []sim.Design{sim.ICNNR, c.versus}, Reqs: c.reqs}
	}
	results, err := sim.CompareSets(sets, opt)
	if err != nil {
		return nil, err
	}
	gaps := make([]sim.Improvement, len(cases))
	for i, r := range results {
		gaps[i] = sim.Gap(r[0].Improvement, r[1].Improvement)
	}
	return gaps, nil
}

// numeric builds a knob with one point per value; point sets the point's X
// and edit, and the row label is X printed as %g.
func numeric[T any](label string, values []T, point func(T) KnobPoint) Knob {
	k := Knob{Label: label, Points: make([]KnobPoint, len(values))}
	for i, v := range values {
		k.Points[i] = point(v)
		k.Points[i].Name = strconv.FormatFloat(k.Points[i].X, 'g', -1, 64)
	}
	return k
}

// AlphaKnob sweeps the Zipf exponent (Figure 8(a)): the gap shrinks as
// popularity concentrates.
func AlphaKnob(alphas ...float64) Knob {
	return numeric("alpha", alphas, func(a float64) KnobPoint {
		return KnobPoint{X: a, Params: func(q *Params) { q.Alpha = a }}
	})
}

// BudgetKnob sweeps the per-router cache budget F (Figure 8(b), x-axis in
// percent of the object universe). The paper finds a non-monotone gap
// peaking around F=2%.
func BudgetKnob(fractions ...float64) Knob {
	return numeric("budget%", fractions, func(f float64) KnobPoint {
		return KnobPoint{X: f * 100, Params: func(q *Params) { q.BudgetFraction = f }}
	})
}

// SkewKnob sweeps the spatial skew dial (Figure 8(c)): the gap grows as
// per-PoP popularity diverges.
func SkewKnob(skews ...float64) Knob {
	return numeric("skew", skews, func(s float64) KnobPoint {
		return KnobPoint{X: s, Params: func(q *Params) { q.SpatialSkew = s }}
	})
}

// LocalityKnob injects short-term request reuse into the synthetic stream.
// Real CDN logs have strong temporal locality (the paper's dataset served
// ~70% of requests at the local cluster); IID Zipf streams have none, which
// leaves edge caches artificially cold and overstates nearest-replica
// routing's advantage. As locality rises toward trace-like levels the gap
// compresses toward the paper's single-digit numbers.
func LocalityKnob(localities ...float64) Knob {
	return numeric("locality", localities, func(l float64) KnobPoint {
		return KnobPoint{X: l, Params: func(q *Params) { q.TemporalLocality = l }}
	})
}

// LookupPenaltyKnob relaxes the paper's conservative zero-cost
// nearest-replica lookup (§3): each NR serve that needed the replica lookup
// pays a fixed latency penalty in hops, showing how quickly ICN-NR's
// advantage erodes once lookup and content-routing overheads are charged.
func LookupPenaltyKnob(penalties ...float64) Knob {
	return numeric("penalty", penalties, func(pen float64) KnobPoint {
		return KnobPoint{X: pen, Config: func(_ Params, c *sim.Config) { c.NRLookupPenalty = pen }}
	})
}

// WarmupKnob treats the first fraction of the stream as warmup (caches
// exercised, metrics excluded). Steady-state gaps are smaller than
// whole-stream gaps because the cold start, where nearest-replica routing
// pools the network's few warm copies, is removed; the paper's whole-trace
// methodology is warmup 0.
func WarmupKnob(fractions ...float64) Knob {
	return numeric("warmup", fractions, func(f float64) KnobPoint {
		return KnobPoint{X: f, Config: func(p Params, c *sim.Config) {
			requests, _ := p.workloadSize()
			c.WarmupRequests = int(float64(requests) * f)
		}}
	})
}

// CoopScopeKnob sweeps the cooperative search radius of EDGE (§3's
// "cooperative caching within a small search scope"): scope 0 is plain
// EDGE, 2 is EDGE-Coop (siblings), larger scopes reach cousins and beyond.
// The gap shrinks as the scope widens, quantifying how much cooperation
// substitutes for pervasive caching.
func CoopScopeKnob(scopes ...int) Knob {
	return numeric("scope", scopes, func(s int) KnobPoint {
		return KnobPoint{X: float64(s), Versus: sim.Design{
			Name: "EDGE-Coop-scope", Placement: sim.PlacementEdge, Routing: sim.RouteShortestPath, CoopScope: s,
		}}
	})
}

// LatencyModelKnob compares §5.1's alternative latency models: hop costs in
// an arithmetic progression toward the core, and core hops costing d times
// more (d in {2, 5, 10}). The paper reports a gap below 2% under both.
func LatencyModelKnob() Knob {
	model := func(name string, m sim.LatencyModel, d float64) KnobPoint {
		return KnobPoint{Name: name, Config: func(_ Params, c *sim.Config) { c.Latency, c.CoreFactor = m, d }}
	}
	return Knob{Label: "model", Points: []KnobPoint{
		model("unit", sim.LatencyUnit, 0),
		model("arithmetic", sim.LatencyArithmetic, 0),
		model("core-x2", sim.LatencyCoreMultiplier, 2),
		model("core-x5", sim.LatencyCoreMultiplier, 5),
		model("core-x10", sim.LatencyCoreMultiplier, 10),
	}}
}

// CapacityKnob limits how many requests a cache may serve per window of a
// tenth of the stream (§5.1); overloaded caches redirect requests to the
// next cache on the path, and 0 means unlimited. The paper reports the gap
// stays below 2%.
func CapacityKnob(capacities ...int64) Knob {
	k := Knob{Label: "capacity"}
	for _, c := range capacities {
		pt := KnobPoint{Name: "unlimited", X: float64(c), Config: func(p Params, cfg *sim.Config) {
			cfg.Capacity = c
			if c > 0 {
				requests, _ := p.workloadSize()
				cfg.CapacityWindow = max(requests/10, 1)
			}
		}}
		if c > 0 {
			pt.Name = "cap=" + strconv.FormatInt(c, 10)
		}
		k.Points = append(k.Points, pt)
	}
	return k
}

// ObjectSizeKnob compares unit object sizes against the heterogeneous
// CDN-like size mix (§5.1): sizes are uncorrelated with popularity, so the
// paper reports under 1% impact on the gap.
func ObjectSizeKnob() Knob {
	return Knob{Label: "sizes", Points: []KnobPoint{
		{Name: "unit-sizes"},
		{Name: "heterogeneous-sizes", Config: func(p Params, c *sim.Config) {
			c.Sizes = trace.GenerateSizes(c.Objects, trace.DefaultContentMix(), rand.New(rand.NewSource(p.Seed+9)))
		}},
	}}
}

// PolicyKnob compares cache-management policies (§3: the paper reports
// qualitatively similar results for LRU and LFU).
func PolicyKnob(policies ...sim.CachePolicy) Knob {
	k := Knob{Label: "policy"}
	for _, pol := range policies {
		k.Points = append(k.Points, KnobPoint{Name: pol.String(), Config: func(_ Params, c *sim.Config) { c.Policy = pol }})
	}
	return k
}

// BestCaseKnob is Figure 9's staircase: each step keeps the previous ones
// and sets one more parameter to the value most favourable to ICN-NR
// (Alpha*=0.1, Skew*=1, Budget-Dist*=uniform, Node-Budget*=2%). The paper's
// fully combined best case reaches at most ~17%.
func BestCaseKnob() Knob {
	steps := []struct {
		name string
		set  func(*Params)
	}{
		{"Baseline", func(*Params) {}},
		{"Alpha*", func(q *Params) { q.Alpha = 0.1 }},
		{"Skew*", func(q *Params) { q.SpatialSkew = 1 }},
		{"Budget-Dist*", func(q *Params) { q.BudgetPolicy = sim.BudgetUniform }},
		{"Node-Budget*", func(q *Params) { q.BudgetFraction = 0.02 }},
	}
	k := Knob{Label: "Step"}
	for i, st := range steps {
		k.Points = append(k.Points, KnobPoint{Name: st.name, Params: func(q *Params) {
			for _, prev := range steps[:i+1] {
				prev.set(q)
			}
		}})
	}
	return k
}

// BestCaseParams returns the paper's fully combined ICN-NR best case
// (Figure 9's rightmost configuration).
func BestCaseParams(p Params) Params {
	k := BestCaseKnob()
	k.Points[len(k.Points)-1].Params(&p)
	return p
}
