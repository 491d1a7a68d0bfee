package experiments

import (
	"fmt"

	"idicn/internal/sim"
)

// Experiment is one artifact the reproduction regenerates: a table or figure
// of the paper's evaluation, or one of the repo's own sensitivity checks and
// ablations. Run returns the artifact's rows as aligned text.
type Experiment struct {
	ID, Title string
	Run       func(Params) (string, error)

	// Extra keeps the entry out of `icnsim -exp all`: it needs an input
	// file (trace-designs), repeats another entry at several seeds
	// (variance), or prints a raw series rather than a result (fig1).
	Extra bool
}

// Registry lists every experiment, in the order `icnsim -exp all` runs them
// (paper order, then the repo's own checks).
var Registry = []Experiment{
	{ID: "table2", Title: "Table 2: Zipf fits of the three CDN vantage points",
		Run: func(p Params) (string, error) { return show(FormatTable2)(Table2(p.Scale)) }},
	{ID: "fig1", Title: "Figure 1: request popularity rank/frequency series", Extra: true,
		Run: func(p Params) (string, error) {
			return show(func(s map[string][]int64) string { return FormatFigure1(s, 20) })(Figure1Series(p.Scale, 0))
		}},
	{ID: "fig2", Title: "Figure 2: fraction of requests served per tree level (optimal placement)",
		Run: func(Params) (string, error) { return FormatFigure2(Figure2()), nil }},
	{ID: "fig6", Title: "Figure 6: improvements over no caching (population-proportional budgets)",
		Run: func(p Params) (string, error) { return show(FormatFigure)(Figure6(p)) }},
	{ID: "fig7", Title: "Figure 7: improvements over no caching (uniform budgets)",
		Run: func(p Params) (string, error) { return show(FormatFigure)(Figure7(p)) }},
	{ID: "table3", Title: "Table 3: ICN-NR vs EDGE latency gap, trace vs best-fit synthetic",
		Run: func(p Params) (string, error) { return show(FormatTable3)(Table3(p)) }},
	{ID: "fig8a", Title: "Figure 8(a): NR-over-EDGE gap vs Zipf alpha",
		Run: sweep(FormatSweep, AlphaKnob(0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6))},
	{ID: "fig8b", Title: "Figure 8(b): NR-over-EDGE gap vs per-router cache budget (%)",
		Run: sweep(FormatSweep, BudgetKnob(1e-5, 1e-4, 1e-3, 5e-3, 0.01, 0.02, 0.05, 0.1, 0.3, 1))},
	{ID: "fig8c", Title: "Figure 8(c): NR-over-EDGE gap vs spatial skew",
		Run: sweep(FormatSweep, SkewKnob(0, 0.2, 0.4, 0.6, 0.8, 1))},
	{ID: "table4", Title: "Table 4: NR-over-EDGE gains vs access-tree arity (64 leaves/tree)",
		Run: func(p Params) (string, error) { return show(FormatTable4)(Table4(p)) }},
	{ID: "table4-norm", Title: "Table 4 variant: arity sweep against EDGE-Norm (equal budgets)",
		Run: func(p Params) (string, error) { return show(FormatTable4)(Table4Normalized(p)) }},
	{ID: "fig9", Title: "Figure 9: progressive best case for ICN-NR",
		Run: sweep(FormatNamedGaps, BestCaseKnob())},
	{ID: "fig10", Title: "Figure 10: bridging the best-case gap with EDGE extensions",
		Run: func(p Params) (string, error) {
			return show(func(rows []SweepRow) string { return FormatNamedGaps("EDGE variant", rows) })(Figure10(p))
		}},
	{ID: "sens-latency", Title: "Sensitivity: latency models (§5.1)",
		Run: sweep(FormatNamedGaps, LatencyModelKnob())},
	{ID: "sens-capacity", Title: "Sensitivity: per-node serving capacity (§5.1)",
		Run: sweep(FormatNamedGaps, CapacityKnob(0, 10, 100, 1000))},
	{ID: "sens-objsize", Title: "Sensitivity: heterogeneous object sizes (§5.1)",
		Run: sweep(FormatNamedGaps, ObjectSizeKnob())},
	{ID: "sens-policy", Title: "Sensitivity: LRU vs LFU cache management (§3)",
		Run: sweep(FormatNamedGaps, PolicyKnob(sim.PolicyLRU, sim.PolicyLFU))},
	{ID: "policy-sweep", Title: "Policy sweep: cache-policy zoo x placement/routing designs",
		Run: func(p Params) (string, error) { return show(FormatPolicySweep)(PolicySweep(p)) }},
	{ID: "flood", Title: "Flood protection (§7): origin-load absorption under a flash crowd",
		Run: func(p Params) (string, error) { return show(FormatFlood)(FloodProtection(p, 0.3)) }},
	{ID: "depth-profile", Title: "Serve-depth profile: where requests are served (simulated vs Figure 2 model)",
		Run: func(p Params) (string, error) {
			profiles, analytic, err := ServeDepthProfile(p)
			if err != nil {
				return "", err
			}
			return FormatDepthProfile(profiles, analytic), nil
		}},
	{ID: "degradation", Title: "Degradation curve: improvements under cache blackouts and resolver outage",
		Run: func(p Params) (string, error) { return show(FormatDegradation)(DegradationCurve(p, p.FailFractions)) }},
	{ID: "ablation-universe", Title: "Ablation: object-universe size (workload warmth) vs design improvements",
		Run: func(p Params) (string, error) { return show(FormatAblation)(AblationObjectUniverse(p, nil)) }},
	{ID: "ablation-lookup", Title: "Ablation: charging nearest-replica lookup a latency cost (hops)",
		Run: sweep(FormatSweep, LookupPenaltyKnob(0, 0.5, 1, 2, 4))},
	{ID: "ablation-deployment", Title: "Ablation: incremental deployment (EDGE caches at a growing fraction of PoPs)",
		Run: func(p Params) (string, error) {
			return show(FormatDeployment)(AblationIncrementalDeployment(p, nil))
		}},
	{ID: "ablation-locality", Title: "Ablation: temporal locality in the request stream vs NR-over-EDGE gap",
		Run: sweep(FormatSweep, LocalityKnob(0, 0.2, 0.4, 0.6, 0.8))},
	{ID: "ablation-policy", Title: "Ablation: LRU/LFU vs Belady's offline optimum at the leaf caches",
		Run: func(p Params) (string, error) { return show(FormatPolicyOptimality)(AblationPolicyOptimality(p)) }},
	{ID: "ablation-warmup", Title: "Ablation: warmup fraction excluded from metrics vs NR-over-EDGE gap",
		Run: sweep(FormatSweep, WarmupKnob(0, 0.25, 0.5, 0.75))},
	{ID: "ablation-coop", Title: "Ablation: cooperative search scope of EDGE vs the ICN-NR gap",
		Run: sweep(FormatSweep, CoopScopeKnob(0, 2, 4, 6))},
	{ID: "trace-designs", Title: "Trace-driven designs: five architectures on a request log file", Extra: true,
		Run: func(p Params) (string, error) {
			switch {
			case p.TraceFile == "":
				return "", fmt.Errorf("trace-designs requires -trace <file>")
			case IsBinaryTrace(p.TraceFile):
				return show(FormatFigure)(StreamDesigns(p, p.TraceFile))
			}
			return show(FormatFigure)(TraceDrivenDesigns(p, p.TraceFile))
		}},
	{ID: "variance", Title: "Seed variance of the NR-over-EDGE gap", Extra: true,
		Run: func(p Params) (string, error) { return show(FormatVariance)(SeedVariance(p, p.VarianceSeeds)) }},
}

// show turns a row formatter into a Run tail: show(FormatFigure)(Figure6(p)).
func show[T any](format func(T) string) func(T, error) (string, error) {
	return func(rows T, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return format(rows), nil
	}
}

// sweep is the Run of a knob sweep: Sweep(p, k) rendered by format
// (FormatSweep or FormatNamedGaps) under the knob's label.
func sweep(format func(string, []SweepRow) string, k Knob) func(Params) (string, error) {
	return func(p Params) (string, error) {
		rows, err := Sweep(p, k)
		if err != nil {
			return "", err
		}
		return format(k.Label, rows), nil
	}
}
