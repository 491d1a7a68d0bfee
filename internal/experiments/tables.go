package experiments

import (
	"fmt"

	"idicn/internal/sim"
	"idicn/internal/topo"
	"idicn/internal/trace"
	"idicn/internal/zipfian"
)

// Table2Row is one vantage point of the paper's Table 2: the request count
// and fitted Zipf parameter of a CDN log.
type Table2Row struct {
	Location   string
	Requests   int
	AlphaFit   float64 // log-log regression fit (the paper's method)
	AlphaMLE   float64 // discrete MLE cross-check
	R2         float64 // regression quality
	PaperAlpha float64 // value reported in the paper
}

// Table2 generates the three vantage-point logs and fits their Zipf
// parameters (paper Table 2: US 0.99, Europe 0.92, Asia 1.04).
func Table2(scale float64) ([]Table2Row, error) {
	models := []struct {
		m     trace.CDNModel
		paper float64
	}{
		{trace.US(scale), 0.99},
		{trace.Europe(scale), 0.92},
		{trace.Asia(scale), 1.04},
	}
	rows := make([]Table2Row, 0, len(models))
	for _, mm := range models {
		log := mm.m.Generate()
		counts := trace.ObjectCounts(log)
		alphaFit, r2, err := zipfian.FitRankFrequency(counts)
		if err != nil {
			return nil, fmt.Errorf("experiments: table2 %s: %w", mm.m.Name, err)
		}
		alphaMLE, err := zipfian.FitMLE(counts)
		if err != nil {
			return nil, fmt.Errorf("experiments: table2 %s: %w", mm.m.Name, err)
		}
		rows = append(rows, Table2Row{
			Location:   mm.m.Name,
			Requests:   len(log),
			AlphaFit:   alphaFit,
			AlphaMLE:   alphaMLE,
			R2:         r2,
			PaperAlpha: mm.paper,
		})
	}
	return rows, nil
}

// Figure1Series returns the rank/frequency series (descending request counts
// by popularity rank) for each vantage point — the data behind the paper's
// Figure 1 log-log plots. maxPoints caps the series length (0 = all).
func Figure1Series(scale float64, maxPoints int) (map[string][]int64, error) {
	out := make(map[string][]int64, 3)
	for _, m := range []trace.CDNModel{trace.US(scale), trace.Europe(scale), trace.Asia(scale)} {
		rf := trace.RankFrequency(m.Generate())
		if maxPoints > 0 && len(rf) > maxPoints {
			rf = rf[:maxPoints]
		}
		out[m.Name] = rf
	}
	return out, nil
}

// Table3Row is one topology of the paper's Table 3: the ICN-NR-over-EDGE
// latency gap under a "real" trace versus a best-fit synthetic log.
type Table3Row struct {
	Topology   string
	TraceGap   float64
	SynthGap   float64
	Difference float64
}

// Table3 validates the synthetic request model: for each topology, it
// compares the ICN-NR vs EDGE query-latency gap under (a) the Asia-model
// trace and (b) an independently generated log using the trace's best-fit
// Zipf parameter. The paper finds the two agree within ~1.7%.
// Not a Knob sweep: it spans every topology and half its streams are traces.
func Table3(p Params) ([]Table3Row, error) {
	requests, objects := p.workloadSize()
	asia := trace.Asia(p.Scale)
	asia.Requests, asia.Objects = requests, objects
	log := asia.Generate()
	counts := trace.ObjectCounts(log)
	alphaFit, _, err := zipfian.FitRankFrequency(counts)
	if err != nil {
		return nil, fmt.Errorf("experiments: table3 fit: %w", err)
	}

	// Two gap cases per topology (trace-driven and synthetic), all fanned
	// out in a single parallel batch.
	tops := topo.AllTopologies()
	cases := make([]gapCase, 0, 2*len(tops))
	for _, tp := range tops {
		net := topo.NewNetwork(tp, p.Arity, p.Depth)
		weights := tp.PopulationWeights()
		cfg := p.baseConfig(tp, net, objects)
		traceReqs := trace.FromRecords(log, weights, net.LeavesPerTree(), p.Seed+3)
		synthReqs := trace.NewSyntheticRequests(trace.StreamConfig{
			Requests:   requests,
			Objects:    objects,
			Alpha:      alphaFit,
			PoPWeights: weights,
			Leaves:     net.LeavesPerTree(),
			Seed:       p.Seed + 4,
		})
		cases = append(cases,
			gapCase{versus: sim.EDGE, cfg: cfg, reqs: traceReqs},
			gapCase{versus: sim.EDGE, cfg: cfg, reqs: synthReqs})
	}
	gaps, err := gapBatch(cases, p.simOptions())
	if err != nil {
		return nil, err
	}
	rows := make([]Table3Row, 0, len(tops))
	for i, tp := range tops {
		traceGap, synthGap := gaps[2*i], gaps[2*i+1]
		rows = append(rows, Table3Row{
			Topology:   tp.Name,
			TraceGap:   traceGap.Latency,
			SynthGap:   synthGap.Latency,
			Difference: synthGap.Latency - traceGap.Latency,
		})
	}
	return rows, nil
}

// Table4Row is one arity of the paper's Table 4: the ICN-NR-over-EDGE gains
// when the access-tree arity changes with the leaf count held fixed.
type Table4Row struct {
	Arity          int
	Depth          int
	LatencyGain    float64
	CongestionGain float64
	OriginGain     float64
}

// Table4 sweeps the access-tree arity over {2, 4, 8, 64} with 64 leaves per
// tree (depths 6, 3, 2, 1), on the largest topology. The paper finds the
// gap shrinking with arity because EDGE's share of the total budget
// (k-1)/k approaches 1.
func Table4(p Params) ([]Table4Row, error) {
	return table4(p, sim.EDGE)
}

// Table4Normalized repeats the arity sweep against EDGE-Norm, removing the
// budget-ratio factor the paper credits for Table 4's trend: whatever gap
// remains at each arity is purely nearest-replica routing's structural
// advantage (sibling and cross-PoP fetches), isolating why the trend does
// or does not reproduce on a given substrate.
func Table4Normalized(p Params) ([]Table4Row, error) {
	return table4(p, sim.EDGENorm)
}

func table4(p Params, versus sim.Design) ([]Table4Row, error) {
	rows := []Table4Row{{Arity: 2, Depth: 6}, {Arity: 4, Depth: 3}, {Arity: 8, Depth: 2}, {Arity: 64, Depth: 1}}
	gaps, err := Sweep(p, numeric("arity", rows, func(r Table4Row) KnobPoint {
		return KnobPoint{X: float64(r.Arity), Versus: versus, Params: func(q *Params) { q.Arity, q.Depth = r.Arity, r.Depth }}
	}))
	if err != nil {
		return nil, err
	}
	for i, g := range gaps {
		rows[i].LatencyGain, rows[i].CongestionGain, rows[i].OriginGain = g.Gap.Latency, g.Gap.Congestion, g.Gap.OriginLoad
	}
	return rows, nil
}
