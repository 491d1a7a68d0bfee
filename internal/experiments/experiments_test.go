package experiments

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"idicn/internal/sim"
	"idicn/internal/topo"
	"idicn/internal/trace"
)

// Tests run at tiny scale so the whole suite stays fast on one core; the
// paper-shape assertions are correspondingly loose. Paper-scale checks live
// in the benchmark harness (bench_test.go at the repo root).
const testScale = 0.02

// testParams uses shallower trees and the small Abilene topology for the
// sensitivity sweeps so that caches are warm (hundreds of requests per leaf)
// even at test scale; with the paper's ATT topology the tiny test workload
// would leave every cache cold and the trends meaningless.
func testParams() Params {
	p := DefaultParams(testScale)
	p.Depth = 3
	p.Objects = 2000
	p.SweepTopology = "Abilene"
	return p
}

func TestTable2FitsVantagePoints(t *testing.T) {
	rows, err := Table2(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	wantOrder := []string{"US", "Europe", "Asia"}
	for i, r := range rows {
		if r.Location != wantOrder[i] {
			t.Errorf("row %d location %s, want %s", i, r.Location, wantOrder[i])
		}
		if math.Abs(r.AlphaFit-r.PaperAlpha) > 0.25 {
			t.Errorf("%s: fitted alpha %.3f far from paper %.2f", r.Location, r.AlphaFit, r.PaperAlpha)
		}
		if r.R2 < 0.8 {
			t.Errorf("%s: weak fit r2=%.3f", r.Location, r.R2)
		}
	}
	// Relative ordering must match the paper: Europe < US < Asia.
	if !(rows[1].AlphaFit < rows[0].AlphaFit && rows[0].AlphaFit < rows[2].AlphaFit) {
		t.Errorf("alpha ordering wrong: US=%.3f Europe=%.3f Asia=%.3f",
			rows[0].AlphaFit, rows[1].AlphaFit, rows[2].AlphaFit)
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "Asia") {
		t.Errorf("FormatTable2 output missing Asia:\n%s", out)
	}
}

func TestFigure1Series(t *testing.T) {
	series, err := Figure1Series(0.01, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("got %d series", len(series))
	}
	for name, rf := range series {
		if len(rf) == 0 || len(rf) > 50 {
			t.Errorf("%s: series length %d", name, len(rf))
		}
		for i := 1; i < len(rf); i++ {
			if rf[i] > rf[i-1] {
				t.Errorf("%s: rank-frequency not descending at %d", name, i)
			}
		}
	}
	if out := FormatFigure1(series, 5); !strings.Contains(out, "US") {
		t.Errorf("FormatFigure1 missing US:\n%s", out)
	}
}

func TestFigure2Shape(t *testing.T) {
	rows := Figure2()
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		sum := 0.0
		for _, f := range r.Fractions {
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("alpha=%v: fractions sum to %v", r.Alpha, sum)
		}
		// Intermediate levels (2..5) each serve less than the edge.
		for l := 1; l < 5; l++ {
			if r.Fractions[l] >= r.Fractions[0] {
				t.Errorf("alpha=%v: level %d (%.3f) >= leaf (%.3f)", r.Alpha, l+1, r.Fractions[l], r.Fractions[0])
			}
		}
	}
	if out := FormatFigure2(rows); !strings.Contains(out, "origin") {
		t.Errorf("FormatFigure2 header wrong:\n%s", out)
	}
}

func TestFigure6PaperShape(t *testing.T) {
	// Runs the Figure 6 computation for a single topology to keep the unit
	// test cheap; the full 8-topology sweep runs in the benchmarks.
	p := testParams()
	cfg, reqs := p.Workload(topo.Abilene())
	results, err := sim.Compare(cfg, sim.BaselineDesigns(), reqs, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, r := range results {
		byName[r.Design.Name] = r.Improvement.Latency
		if r.Improvement.Latency <= 0 {
			t.Errorf("%s latency improvement %v <= 0", r.Design.Name, r.Improvement.Latency)
		}
	}
	// Key paper findings, loosely: the ICN-NR over ICN-SP edge is small,
	// and EDGE designs are within striking distance of ICN-NR.
	if byName["ICN-NR"]-byName["ICN-SP"] > 10 {
		t.Errorf("NR over SP gap = %v, expected marginal", byName["ICN-NR"]-byName["ICN-SP"])
	}
	if byName["ICN-NR"]-byName["EDGE-Coop"] > 15 {
		t.Errorf("NR over EDGE-Coop gap = %v, expected small", byName["ICN-NR"]-byName["EDGE-Coop"])
	}
}

func TestFigure8aGapShrinksWithAlpha(t *testing.T) {
	p := testParams()
	points, err := Sweep(p, AlphaKnob(0.3, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	if points[1].Gap.Latency > points[0].Gap.Latency+1 {
		t.Errorf("gap grew with alpha: %.2f -> %.2f", points[0].Gap.Latency, points[1].Gap.Latency)
	}
	if out := FormatSweep("alpha", points); !strings.Contains(out, "alpha") {
		t.Error("FormatSweep missing label")
	}
}

func TestFigure8cSkewKeepsGapPositive(t *testing.T) {
	// The paper's skew-amplifies-NR effect needs its full-scale ATT setup
	// (long core paths and warm leaves); at test scale we assert the sweep
	// runs, stays positive, and moves the gap only modestly. The full trend
	// shows at larger scale (`icnsim -exp fig8c`; see EXPERIMENTS.md).
	p := testParams()
	points, err := Sweep(p, SkewKnob(0, 0.5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	for _, pt := range points {
		if pt.Gap.Latency <= 0 {
			t.Errorf("skew=%v: NR-over-EDGE gap %.2f, want positive", pt.X, pt.Gap.Latency)
		}
	}
	if math.Abs(points[2].Gap.Latency-points[0].Gap.Latency) > 8 {
		t.Errorf("skew moved the gap implausibly: %.2f -> %.2f",
			points[0].Gap.Latency, points[2].Gap.Latency)
	}
}

func TestFigure8bNonMonotone(t *testing.T) {
	// In the warm regime the paper's Figure 8(b) shape appears: near-zero
	// gap for tiny budgets, a peak at a few percent, and a decline once
	// edge caches are large enough to capture most requests.
	p := testParams()
	p.Objects = 100 // high warmth: requests/leaf >> universe
	points, err := Sweep(p, BudgetKnob(1e-3, 0.02, 0.05, 1))
	if err != nil {
		t.Fatal(err)
	}
	tiny, peak1, peak2, full := points[0].Gap.Latency, points[1].Gap.Latency, points[2].Gap.Latency, points[3].Gap.Latency
	peak := math.Max(peak1, peak2)
	if tiny > 3 {
		t.Errorf("gap at F=0.1%% is %.2f, want near zero", tiny)
	}
	if peak < tiny {
		t.Errorf("no rise toward the peak: tiny=%.2f peak=%.2f", tiny, peak)
	}
	if full > peak {
		t.Errorf("gap did not decline past the peak: peak=%.2f full=%.2f", peak, full)
	}
}

func TestFigure9Progression(t *testing.T) {
	p := testParams()
	steps, err := Sweep(p, BestCaseKnob())
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"Baseline", "Alpha*", "Skew*", "Budget-Dist*", "Node-Budget*"}
	if len(steps) != len(wantNames) {
		t.Fatalf("got %d steps", len(steps))
	}
	for i, s := range steps {
		if s.Name != wantNames[i] {
			t.Errorf("step %d = %s, want %s", i, s.Name, wantNames[i])
		}
	}
	// Every step keeps ICN-NR ahead of EDGE; the magnitude ordering of the
	// steps depends on workload warmth (see EXPERIMENTS.md), so the
	// paper-scale comparison lives in the bench harness.
	for _, s := range steps {
		if s.Gap.Latency <= 0 {
			t.Errorf("step %s: gap %.2f, want positive", s.Name, s.Gap.Latency)
		}
	}
	if out := FormatNamedGaps("Step", steps); !strings.Contains(out, "Node-Budget*") {
		t.Error("FormatNamedGaps missing step name")
	}
}

func TestFigure10BridgesGap(t *testing.T) {
	p := testParams()
	rows, err := Figure10(p)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Name] = r.Gap.Latency
	}
	for _, want := range []string{"Baseline", "2-Levels", "Coop", "2-Levels-Coop", "Norm", "Norm-Coop", "Double-Budget-Coop", "Section-4", "Inf-Budget"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("missing variant %q", want)
		}
	}
	// Each mitigation should not widen the gap; Double-Budget-Coop should be
	// the strongest of the budget variants.
	if byName["Norm-Coop"] > byName["Baseline"]+1 {
		t.Errorf("Norm-Coop gap %.2f worse than Baseline %.2f", byName["Norm-Coop"], byName["Baseline"])
	}
	if byName["Double-Budget-Coop"] > byName["Norm-Coop"]+1 {
		t.Errorf("Double-Budget-Coop gap %.2f worse than Norm-Coop %.2f",
			byName["Double-Budget-Coop"], byName["Norm-Coop"])
	}
	if out := FormatNamedGaps("EDGE variant", rows); !strings.Contains(out, "Inf-Budget") {
		t.Error("FormatNamedGaps missing variant")
	}
}

func TestTable3SynthCloseToTrace(t *testing.T) {
	p := testParams()
	rows, err := Table3(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if math.Abs(r.Difference) > 6 {
			t.Errorf("%s: trace/synthetic difference %.2f too large", r.Topology, r.Difference)
		}
	}
	if out := FormatTable3(rows); !strings.Contains(out, "Abilene") {
		t.Error("FormatTable3 missing topology")
	}
}

func TestTable4GapShrinksWithArity(t *testing.T) {
	p := testParams()
	rows, err := Table4(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Arity != 2 || rows[3].Arity != 64 {
		t.Fatalf("arity order wrong: %+v", rows)
	}
	// ICN-NR stays ahead at every arity; the paper's shrinking-gap trend
	// requires its full-scale warmth and is examined in EXPERIMENTS.md.
	for _, r := range rows {
		if r.LatencyGain <= 0 {
			t.Errorf("arity %d: gap %.2f, want positive", r.Arity, r.LatencyGain)
		}
	}
	if out := FormatTable4(rows); !strings.Contains(out, "64") {
		t.Error("FormatTable4 missing arity 64")
	}
}

func TestSensitivityLatencyModels(t *testing.T) {
	p := testParams()
	rows, err := Sweep(p, LatencyModelKnob())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	if out := FormatNamedGaps("model", rows); !strings.Contains(out, "arithmetic") {
		t.Error("format missing variant")
	}
}

func TestSensitivityCapacity(t *testing.T) {
	p := testParams()
	rows, err := Sweep(p, CapacityKnob(0, 50))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Name != "unlimited" || rows[1].Name != "cap=50" {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestSensitivityObjectSizesAndPolicy(t *testing.T) {
	p := testParams()
	sizes, err := Sweep(p, ObjectSizeKnob())
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 2 {
		t.Fatalf("sizes rows = %+v", sizes)
	}
	pol, err := Sweep(p, PolicyKnob(sim.PolicyLRU, sim.PolicyLFU))
	if err != nil {
		t.Fatal(err)
	}
	if len(pol) != 2 {
		t.Fatalf("policy rows = %+v", pol)
	}
	// LRU and LFU should tell a qualitatively similar story.
	if math.Abs(pol[0].Gap.Latency-pol[1].Gap.Latency) > 10 {
		t.Errorf("LRU vs LFU gaps diverge: %+v", pol)
	}
}

func TestAblationObjectUniverseWarmthTrend(t *testing.T) {
	p := testParams()
	rows, err := AblationObjectUniverse(p, []int{2000, 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if len(r.Improvements) != 5 {
			t.Fatalf("row %d has %d designs", r.Objects, len(r.Improvements))
		}
		if r.NRvsEdge.Latency <= 0 {
			t.Errorf("objects=%d: NR-EDGE gap %.2f, want positive", r.Objects, r.NRvsEdge.Latency)
		}
	}
	if out := FormatAblation(rows); !strings.Contains(out, "NR-EDGE gap") {
		t.Error("FormatAblation header missing")
	}
}

func TestFloodProtection(t *testing.T) {
	p := testParams()
	rows, err := FloodProtection(p, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 || rows[0].Design != "No-Cache" {
		t.Fatalf("rows = %+v", rows)
	}
	byName := map[string]FloodRow{}
	for _, r := range rows {
		byName[r.Design] = r
	}
	// Caching absorbs the flood: every cached design slashes origin load.
	for _, d := range []string{"ICN-SP", "ICN-NR", "EDGE", "EDGE-Coop"} {
		r := byName[d]
		if r.OriginShare > 0.6 {
			t.Errorf("%s: origin share %.3f; the flood was not absorbed", d, r.OriginShare)
		}
		if r.MaxOriginLoad >= byName["No-Cache"].MaxOriginLoad {
			t.Errorf("%s: max origin load %d not reduced from %d", d, r.MaxOriginLoad, byName["No-Cache"].MaxOriginLoad)
		}
	}
	// The paper's §7 point: EDGE provides much of the same flood protection
	// as pervasive ICN (similar origin-load improvements).
	if gap := byName["ICN-NR"].Improvement.OriginLoad - byName["EDGE"].Improvement.OriginLoad; gap > 25 {
		t.Errorf("EDGE flood protection trails ICN-NR by %.1f points; expected comparable", gap)
	}
	if out := FormatFlood(rows); !strings.Contains(out, "No-Cache") {
		t.Error("FormatFlood missing baseline row")
	}
}

func TestAblationLookupCostErodesGap(t *testing.T) {
	p := testParams()
	points, err := Sweep(p, LookupPenaltyKnob(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	if points[1].Gap.Latency >= points[0].Gap.Latency {
		t.Errorf("lookup penalty did not erode the NR gap: %.2f -> %.2f",
			points[0].Gap.Latency, points[1].Gap.Latency)
	}
	// Congestion and origin load are unaffected by a pure latency penalty.
	if points[1].Gap.Congestion != points[0].Gap.Congestion {
		t.Errorf("penalty changed congestion: %.2f vs %.2f",
			points[0].Gap.Congestion, points[1].Gap.Congestion)
	}
}

func TestIncrementalDeploymentIndependence(t *testing.T) {
	p := testParams()
	rows, err := AblationIncrementalDeployment(p, []float64{0.25, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	partial, full := rows[0], rows[1]
	// Deployed users benefit substantially even at partial deployment.
	if partial.DeployedImprovement < 20 {
		t.Errorf("deployed users improved only %.1f%% at 25%% deployment", partial.DeployedImprovement)
	}
	// Undeployed users see essentially nothing under EDGE (their requests
	// pass no caches): the paper's independence claim.
	if partial.UndeployedImprovement > 5 {
		t.Errorf("undeployed users improved %.1f%%; EDGE benefits should be local", partial.UndeployedImprovement)
	}
	// The benefit for deployed users barely depends on how many others
	// deployed: compare deployed-user improvement at 25%% vs 100%%.
	if diff := full.DeployedImprovement - partial.DeployedImprovement; diff > 10 || diff < -10 {
		t.Errorf("deployed-user benefit depends on others' deployment: %.1f vs %.1f",
			partial.DeployedImprovement, full.DeployedImprovement)
	}
	if out := FormatDeployment(rows); !strings.Contains(out, "Undeployed") {
		t.Error("FormatDeployment header missing")
	}
}

func TestAblationTemporalLocalityCompressesGap(t *testing.T) {
	p := testParams()
	points, err := Sweep(p, LocalityKnob(0, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	// The reproduction's central hypothesis: trace-like temporal locality
	// warms edge caches and compresses the NR advantage.
	if points[1].Gap.Latency >= points[0].Gap.Latency {
		t.Errorf("locality did not compress the gap: %.2f -> %.2f",
			points[0].Gap.Latency, points[1].Gap.Latency)
	}
}

func TestAblationPolicyOptimality(t *testing.T) {
	p := testParams()
	rows, err := AblationPolicyOptimality(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].Policy != "Belady-MIN (offline optimal)" {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows[1:] {
		if r.FractionOfOpt > 1.0001 {
			t.Errorf("%s beat the offline optimum: %v", r.Policy, r.FractionOfOpt)
		}
		if r.FractionOfOpt < 0.4 {
			t.Errorf("%s at %.2f of optimal; implausibly poor", r.Policy, r.FractionOfOpt)
		}
	}
	if out := FormatPolicyOptimality(rows); !strings.Contains(out, "Belady") {
		t.Error("format missing Belady row")
	}
}

func TestTraceDrivenDesigns(t *testing.T) {
	// Write a small log, then drive the designs from it.
	dir := t.TempDir()
	logPath := dir + "/test.log"
	m := trace.Asia(0.003)
	f, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteLog(f, m.Generate()); err != nil {
		t.Fatal(err)
	}
	f.Close()

	p := testParams()
	rows, err := TraceDrivenDesigns(p, logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Imp.Latency <= 0 {
			t.Errorf("%s: latency improvement %v", r.Design, r.Imp.Latency)
		}
	}
	if _, err := TraceDrivenDesigns(p, dir+"/missing.log"); err == nil {
		t.Error("missing log accepted")
	}
}

func TestSeedVariance(t *testing.T) {
	p := testParams()
	p.Scale = 0.01
	rows, err := SeedVariance(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Min > r.Mean || r.Mean > r.Max {
			t.Errorf("%s: min %.2f mean %.2f max %.2f inconsistent", r.Metric, r.Min, r.Mean, r.Max)
		}
		if r.StdDev < 0 {
			t.Errorf("%s: negative stddev", r.Metric)
		}
	}
	if out := FormatVariance(rows); !strings.Contains(out, "latency") {
		t.Error("FormatVariance missing metric")
	}
	if _, err := SeedVariance(p, 1); err == nil {
		t.Error("SeedVariance accepted 1 seed")
	}
}

func TestServeDepthProfile(t *testing.T) {
	p := testParams()
	profiles, analytic, err := ServeDepthProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 2 {
		t.Fatalf("got %d profiles", len(profiles))
	}
	for _, prof := range profiles {
		sum := 0.0
		for _, f := range prof.Fractions {
			if f < 0 {
				t.Fatalf("%s: negative fraction", prof.Design)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: fractions sum to %v", prof.Design, sum)
		}
	}
	// EDGE serves only at leaves (level 1) and the origin.
	edge := profiles[1]
	for l := 1; l < len(edge.Fractions)-1; l++ {
		if edge.Fractions[l] != 0 {
			t.Errorf("EDGE served %.3f at level %d; should be leaf/origin only", edge.Fractions[l], l+1)
		}
	}
	// ICN-SP's leaf share should be in the same ballpark as the analytical
	// optimum's leaf share (LRU vs optimal placement differ, but not wildly).
	icn := profiles[0]
	if icn.Fractions[0] < analytic[0]*0.4 {
		t.Errorf("simulated leaf share %.3f far below model %.3f", icn.Fractions[0], analytic[0])
	}
	if out := FormatDepthProfile(profiles, analytic); !strings.Contains(out, "origin") {
		t.Error("format missing origin column")
	}
}

func TestAblationWarmupShrinksGap(t *testing.T) {
	p := testParams()
	points, err := Sweep(p, WarmupKnob(0, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	if points[1].Gap.Latency > points[0].Gap.Latency+1 {
		t.Errorf("steady-state gap %.2f larger than whole-stream %.2f",
			points[1].Gap.Latency, points[0].Gap.Latency)
	}
}

// Smoke-test the full eight-topology sweeps at minimal scale; the
// paper-scale versions run via cmd/icnsim and the bench harness.
func TestFigure6And7AllTopologies(t *testing.T) {
	p := DefaultParams(0.001)
	p.Depth = 2
	rows6, err := Figure6(p)
	if err != nil {
		t.Fatal(err)
	}
	rows7, err := Figure7(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows6) != 8*5 || len(rows7) != 8*5 {
		t.Fatalf("rows: fig6=%d fig7=%d, want 40 each", len(rows6), len(rows7))
	}
	seen := map[string]bool{}
	for _, r := range rows6 {
		seen[r.Topology] = true
	}
	if len(seen) != 8 {
		t.Errorf("fig6 covered %d topologies", len(seen))
	}
}

func TestAblationCoopScopeWidensCoverage(t *testing.T) {
	p := testParams()
	points, err := Sweep(p, CoopScopeKnob(0, 2, 6))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	// Wider cooperation narrows the gap monotonically (small tolerance).
	if points[1].Gap.Latency > points[0].Gap.Latency+0.5 {
		t.Errorf("scope 2 gap %.2f worse than scope 0 %.2f", points[1].Gap.Latency, points[0].Gap.Latency)
	}
	if points[2].Gap.Latency > points[1].Gap.Latency+0.5 {
		t.Errorf("scope 6 gap %.2f worse than scope 2 %.2f", points[2].Gap.Latency, points[1].Gap.Latency)
	}
}

func TestTable4Normalized(t *testing.T) {
	p := testParams()
	rows, err := Table4Normalized(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	plain, err := Table4(p)
	if err != nil {
		t.Fatal(err)
	}
	// Normalizing budgets can only help EDGE: the gap at each arity is no
	// larger than against plain EDGE (small tolerance for noise).
	for i := range rows {
		if rows[i].LatencyGain > plain[i].LatencyGain+1 {
			t.Errorf("arity %d: normalized gap %.2f exceeds plain %.2f",
				rows[i].Arity, rows[i].LatencyGain, plain[i].LatencyGain)
		}
	}
}

func TestDegradationCurve(t *testing.T) {
	p := testParams()
	rows, err := DegradationCurve(p, []float64{0, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // {EDGE, ICN-NR, ICN-NR/res-down} x {0, 0.3}
		t.Fatalf("got %d rows", len(rows))
	}
	byKey := map[string]DegradationRow{}
	for _, r := range rows {
		byKey[fmt.Sprintf("%s@%g", r.Design, r.FailFraction)] = r
	}
	// Healthy rows are the reference: 100% retained by construction.
	for _, d := range []string{"EDGE", "ICN-NR"} {
		if got := byKey[d+"@0"].RetainedLatency; math.Abs(got-100) > 1e-9 {
			t.Errorf("%s healthy retained = %.2f, want 100", d, got)
		}
	}
	// Failures degrade but never below the no-cache baseline: improvements
	// stay non-negative, retained fraction strictly below healthy.
	for key, r := range byKey {
		if r.Imp.Latency < -1 {
			t.Errorf("%s: latency improvement %.2f fell below the no-cache baseline", key, r.Imp.Latency)
		}
	}
	if e0, e3 := byKey["EDGE@0"], byKey["EDGE@0.3"]; e3.Imp.Latency >= e0.Imp.Latency {
		t.Errorf("EDGE not degraded by failures: %.2f -> %.2f", e0.Imp.Latency, e3.Imp.Latency)
	}
	// Losing the resolution system costs ICN-NR part of its edge, but
	// on-path caches keep it above zero.
	nr, nrDown := byKey["ICN-NR@0"], byKey["ICN-NR/res-down@0"]
	if nrDown.Imp.Latency >= nr.Imp.Latency {
		t.Errorf("resolver outage did not hurt ICN-NR: %.2f -> %.2f", nr.Imp.Latency, nrDown.Imp.Latency)
	}
	if nrDown.Imp.Latency <= 0 {
		t.Errorf("resolver-down ICN-NR lost all benefit: %.2f", nrDown.Imp.Latency)
	}
	// Determinism: the seeded failure plan reproduces exactly.
	again, err := DegradationCurve(p, []float64{0, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, again) {
		t.Error("degradation curve not reproducible")
	}
	if out := FormatDegradation(rows); !strings.Contains(out, "Retained%") {
		t.Error("FormatDegradation header missing")
	}
	// Retained% normalizes against each design's healthy run whether the
	// fraction list starts with 0, ends with it or leaves it out.
	for _, fractions := range [][]float64{{0.3}, {0.3, 0}} {
		other, err := DegradationCurve(p, fractions)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range other {
			want := byKey[fmt.Sprintf("%s@%g", r.Design, r.FailFraction)]
			if r.RetainedLatency != want.RetainedLatency || r.Imp != want.Imp {
				t.Errorf("fractions %v: %s@%g retained %.2f, want %.2f as with {0, 0.3}",
					fractions, r.Design, r.FailFraction, r.RetainedLatency, want.RetainedLatency)
			}
		}
	}
}
