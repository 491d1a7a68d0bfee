package experiments

import (
	"idicn/internal/sim"
)

// DegradationRow reports one point of the failure-degradation curve: a
// design's improvement over the no-cache baseline while a fraction of its
// caches (and possibly the resolution system) is down.
type DegradationRow struct {
	Design       string
	FailFraction float64
	ResolverDown bool
	Imp          sim.Improvement
	// RetainedLatency is the latency improvement as a percentage of the
	// same design's healthy (no-failure, resolver-up) improvement: 100
	// means unharmed, 0 means degraded all the way to the no-cache
	// baseline.
	RetainedLatency float64
}

// DegradationCurve measures graceful degradation under infrastructure
// failures, the simulator-side counterpart of the proxy's serve-stale and
// direct-to-origin fallbacks: EDGE and ICN-NR run with a growing fraction of
// their caches blacked out (seeded, so the curve is exactly reproducible),
// and ICN-NR additionally with its resolution system down, which degrades
// nearest-replica routing to shortest-path-toward-origin. The paper's
// incremental-deployment argument (§4.3) predicts EDGE's benefit decays
// roughly linearly with failed caches and never falls below the no-cache
// baseline; the resolver-down rows quantify how much of ICN-NR's edge
// depends on the resolution infrastructure staying up.
// Not a Knob sweep: it reports each design against its own healthy run.
func DegradationCurve(p Params, fractions []float64) ([]DegradationRow, error) {
	if fractions == nil {
		fractions = []float64{0, 0.1, 0.3, 0.5}
	}
	tp := p.sweepTopology()
	cfg, reqs := p.Workload(tp)

	type variant struct {
		name         string
		design       sim.Design
		resolverDown bool
	}
	variants := []variant{
		{"EDGE", sim.EDGE, false},
		{"ICN-NR", sim.ICNNR, false},
		{"ICN-NR/res-down", sim.ICNNR, true},
	}

	// One parallel batch: job 0 is the shared no-cache baseline, then one
	// run per variant x failure fraction, then a healthy (no-failure,
	// resolver-up) run for any design the fraction list gives none. The
	// Retained column divides by that run's latency improvement. The
	// resolver-down variant is normalized against plain ICN-NR: its f=0 row
	// then directly reads off the cost of losing resolution alone.
	jobs := []sim.Job{{Config: sim.BaselineConfig(cfg), Reqs: reqs}}
	healthyJob := map[string]int{}
	for _, v := range variants {
		for _, f := range fractions {
			run := v.design.Apply(cfg)
			if f > 0 || v.resolverDown {
				run.FailurePlan = &sim.FailurePlan{
					Seed:   p.Seed + 3,
					Epochs: []sim.FailureEpoch{{Start: 0, FailFraction: f, ResolverDown: v.resolverDown}},
				}
			} else {
				healthyJob[v.design.Name] = len(jobs)
			}
			jobs = append(jobs, sim.Job{Config: run, Reqs: reqs})
		}
	}
	for _, v := range variants {
		if _, ok := healthyJob[v.design.Name]; !ok {
			healthyJob[v.design.Name] = len(jobs)
			jobs = append(jobs, sim.Job{Config: v.design.Apply(cfg), Reqs: reqs})
		}
	}
	results, err := sim.Run(jobs, p.simOptions())
	if err != nil {
		return nil, err
	}
	baseline := results[0]

	rows := make([]DegradationRow, 0, len(variants)*len(fractions))
	idx := 1
	for _, v := range variants {
		healthy := sim.Improvements(baseline, results[healthyJob[v.design.Name]]).Latency
		for _, f := range fractions {
			imp := sim.Improvements(baseline, results[idx])
			idx++
			retained := 0.0
			if healthy != 0 {
				retained = imp.Latency / healthy * 100
			}
			rows = append(rows, DegradationRow{
				Design:          v.name,
				FailFraction:    f,
				ResolverDown:    v.resolverDown,
				Imp:             imp,
				RetainedLatency: retained,
			})
		}
	}
	return rows, nil
}
