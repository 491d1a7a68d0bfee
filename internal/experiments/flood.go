package experiments

import (
	"fmt"
	"math/rand"

	"idicn/internal/sim"
)

// FloodRow reports one design's behaviour under a request flood.
type FloodRow struct {
	Design string
	// OriginShare is the fraction of all requests (flood included) served
	// by origin servers.
	OriginShare float64
	// MaxOriginLoad is the busiest origin's request count.
	MaxOriginLoad int64
	// Improvement is relative to the no-cache run of the same flooded
	// workload.
	Improvement sim.Improvement
}

// FloodProtection examines the paper's §7 discussion: "an edge cache
// deployment can provide much of the same request flood protection as
// pervasively deployed ICNs". A flash crowd — floodFraction of all requests
// targeting one previously unpopular object from everywhere in the network —
// is mixed into the baseline workload; since caches replicate the flooded
// object on first touch, both EDGE and ICN absorb the flood, and the
// interesting question is how closely EDGE tracks ICN's origin-load
// protection.
// Not a Knob sweep: it reports origin load per design, not the NR-over-EDGE gap.
func FloodProtection(p Params, floodFraction float64) ([]FloodRow, error) {
	if floodFraction <= 0 || floodFraction >= 1 {
		floodFraction = 0.3
	}
	tp := p.sweepTopology()
	cfg, base := p.Workload(tp)

	// The flood target: the least popular object, owned by whichever PoP
	// the origin assignment gave it.
	target := int32(cfg.Objects - 1)
	floodCount := int(float64(len(base)) * floodFraction / (1 - floodFraction))
	r := rand.New(rand.NewSource(p.Seed + 77))
	weights := tp.PopulationWeights()
	net := cfg.Network

	// Interleave flood requests uniformly through the stream.
	flooded := make([]sim.Request, 0, len(base)+floodCount)
	interval := len(base) / (floodCount + 1)
	if interval < 1 {
		interval = 1
	}
	next := interval
	for i, q := range base {
		flooded = append(flooded, q)
		if i == next && floodCount > 0 {
			pop := weightedPop(r, weights)
			flooded = append(flooded, sim.Request{
				PoP:    int32(pop),
				Leaf:   int32(r.Intn(net.LeavesPerTree())),
				Object: target,
			})
			floodCount--
			next += interval
		}
	}

	// One parallel batch: the no-cache baseline plus the four designs.
	designs := []sim.Design{sim.ICNSP, sim.ICNNR, sim.EDGE, sim.EDGECoop}
	jobs := []sim.Job{{Config: sim.BaselineConfig(cfg), Reqs: flooded}}
	for _, d := range designs {
		jobs = append(jobs, sim.Job{Config: d.Apply(cfg), Reqs: flooded})
	}
	results, err := sim.Run(jobs, p.simOptions())
	if err != nil {
		return nil, err
	}
	baseline := results[0]
	rows := []FloodRow{{
		Design:        "No-Cache",
		OriginShare:   1,
		MaxOriginLoad: baseline.MaxOriginLoad,
	}}
	for i, d := range designs {
		res := results[i+1]
		rows = append(rows, FloodRow{
			Design:        d.Name,
			OriginShare:   float64(res.TotalOrigin) / float64(res.Requests),
			MaxOriginLoad: res.MaxOriginLoad,
			Improvement:   sim.Improvements(baseline, res),
		})
	}
	return rows, nil
}

func weightedPop(r *rand.Rand, weights []float64) int {
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	pick := r.Float64() * sum
	for i, w := range weights {
		pick -= w
		if pick < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// FormatFlood renders the flood-protection comparison.
func FormatFlood(rows []FloodRow) string {
	return table("Design\tOrigin share\tMax origin load\tOrigin-load improvement%", rows, func(r FloodRow) string {
		return fmt.Sprintf("%s\t%.3f\t%d\t%.2f", r.Design, r.OriginShare, r.MaxOriginLoad, r.Improvement.OriginLoad)
	})
}
