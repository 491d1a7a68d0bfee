package experiments

import (
	"idicn/internal/sim"
	"idicn/internal/trace"
)

// AblationTemporalLocality measures the ICN-NR over EDGE gap as short-term
// request reuse is injected into the synthetic workload. Real CDN logs have
// strong temporal locality (the paper's dataset served ~70% of requests at
// the local cluster); IID Zipf streams have none, which leaves edge caches
// artificially cold and overstates nearest-replica routing's advantage.
// This sweep tests that explanation directly: as locality rises toward
// trace-like levels, the gap should compress toward the paper's
// single-digit numbers.
func AblationTemporalLocality(p Params, localities []float64) ([]SweepPoint, error) {
	if localities == nil {
		localities = []float64{0, 0.2, 0.4, 0.6, 0.8}
	}
	tp := p.sweepTopology()
	net, requests, objects := p.buildNet(tp)
	weights := tp.PopulationWeights()
	base := p.baseConfig(tp, net, objects)

	cfgs := make([]sim.Config, len(localities))
	reqss := make([][]sim.Request, len(localities))
	for i, q := range localities {
		reqss[i] = trace.NewSyntheticRequests(trace.StreamConfig{
			Requests:         requests,
			Objects:          objects,
			Alpha:            p.Alpha,
			SpatialSkew:      p.SpatialSkew,
			PoPWeights:       weights,
			Leaves:           net.LeavesPerTree(),
			Seed:             p.Seed + 2,
			TemporalLocality: q,
		})
		cfgs[i] = base
	}
	gaps, err := gapBatch(nrEdgeCases(cfgs, reqss), p.simOptions())
	if err != nil {
		return nil, err
	}
	points := make([]SweepPoint, len(localities))
	for i, q := range localities {
		points[i] = SweepPoint{X: q, Gap: gaps[i]}
	}
	return points, nil
}
