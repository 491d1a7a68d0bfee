package experiments

import (
	"fmt"
	"sort"

	"idicn/internal/sim"
)

// DeploymentRow reports one partial-deployment point: caches deployed at
// the given fraction of PoPs (largest populations first), with latency
// improvements measured separately for users behind deployed and
// undeployed PoPs.
type DeploymentRow struct {
	Fraction     float64 // fraction of PoPs with caches
	DeployedPoPs int
	// DeployedImprovement is the mean-latency improvement (over the
	// no-cache baseline) for requests arriving at deployed PoPs.
	DeployedImprovement float64
	// UndeployedImprovement is the same for PoPs without caches.
	UndeployedImprovement float64
	// OverallImprovement covers all requests.
	OverallImprovement float64
}

// AblationIncrementalDeployment examines the paper's deployment argument
// (§4.3): "there is an immediate benefit to a group of users who have a
// cache server deployed near their access gateways [and] this benefit is
// independent of deployments (or the lack thereof) in the rest of the
// network." Edge caches are deployed at a growing fraction of PoPs
// (largest first) under the EDGE design, and the latency improvement is
// measured separately for deployed and undeployed populations.
// Not a Knob sweep: it splits one EDGE run's improvement by PoP deployment.
func AblationIncrementalDeployment(p Params, fractions []float64) ([]DeploymentRow, error) {
	if fractions == nil {
		fractions = []float64{0.1, 0.25, 0.5, 0.75, 1}
	}
	tp := p.sweepTopology()
	cfg, reqs := p.Workload(tp)

	// PoPs ordered by population, most populous first.
	order := make([]int, tp.Graph.N())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return tp.Population[order[a]] > tp.Population[order[b]]
	})

	// One parallel batch: job 0 is the shared no-cache baseline, followed
	// by one EDGE run per deployment fraction.
	jobs := []sim.Job{{Config: sim.BaselineConfig(cfg), Reqs: reqs}}
	counts := make([]int, len(fractions))
	deployments := make([][]bool, len(fractions))
	for i, f := range fractions {
		count := int(float64(len(order))*f + 0.5)
		if count < 1 {
			count = 1
		}
		if count > len(order) {
			count = len(order)
		}
		deployed := make([]bool, len(order))
		for _, pop := range order[:count] {
			deployed[pop] = true
		}
		run := sim.EDGE.Apply(cfg)
		run.Deployed = deployed
		counts[i], deployments[i] = count, deployed
		jobs = append(jobs, sim.Job{Config: run, Reqs: reqs})
	}
	results, err := sim.Run(jobs, p.simOptions())
	if err != nil {
		return nil, err
	}
	baseline := results[0]

	rows := make([]DeploymentRow, 0, len(fractions))
	for i, f := range fractions {
		res := results[i+1]
		rows = append(rows, DeploymentRow{
			Fraction:              f,
			DeployedPoPs:          counts[i],
			DeployedImprovement:   groupImprovement(baseline, res, deployments[i], true),
			UndeployedImprovement: groupImprovement(baseline, res, deployments[i], false),
			OverallImprovement:    sim.Improvements(baseline, res).Latency,
		})
	}
	return rows, nil
}

// groupImprovement computes the mean-latency improvement over the baseline
// restricted to requests whose arrival PoP's deployment status matches
// want.
func groupImprovement(base, run sim.Result, deployed []bool, want bool) float64 {
	var baseSum, runSum float64
	var n int64
	for pop := range deployed {
		if deployed[pop] != want {
			continue
		}
		baseSum += base.PoPLatency[pop]
		runSum += run.PoPLatency[pop]
		n += base.PoPRequests[pop]
	}
	if n == 0 || baseSum == 0 {
		return 0
	}
	return (baseSum - runSum) / baseSum * 100
}

// FormatDeployment renders the incremental-deployment ablation.
func FormatDeployment(rows []DeploymentRow) string {
	return table("Deployed fraction\tPoPs\tDeployed users%\tUndeployed users%\tOverall%", rows, func(r DeploymentRow) string {
		return fmt.Sprintf("%.2f\t%d\t%.2f\t%.2f\t%.2f",
			r.Fraction, r.DeployedPoPs, r.DeployedImprovement, r.UndeployedImprovement, r.OverallImprovement)
	})
}
