// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation. Each benchmark regenerates its artifact at a laptop-friendly
// scale and logs the resulting rows (visible with `go test -bench . -v` or
// in -benchmem output via b.Log); EXPERIMENTS.md records a full
// paper-versus-measured comparison produced with cmd/icnsim at larger
// scale.
//
// Reported ns/op is the cost of regenerating the whole artifact once.
package idicn_test

import (
	"fmt"
	"reflect"
	"testing"

	"idicn/internal/experiments"
	"idicn/internal/sim"
	"idicn/internal/topo"
	"idicn/internal/trace"
)

// benchScale keeps every artifact regeneration under ~10s on one core.
const benchScale = 0.02

func benchParams() experiments.Params {
	return experiments.DefaultParams(benchScale)
}

// warmParams is the high-warmth configuration (shallow trees, small
// universe, small topology) in which the paper's capacity-driven trends
// (Figure 8(b) non-monotonicity, EDGE-Norm gains) manifest at bench scale;
// see EXPERIMENTS.md.
func warmParams() experiments.Params {
	p := benchParams()
	p.Depth = 3
	p.Objects = 2000
	p.SweepTopology = "Abilene"
	return p
}

func BenchmarkTable2ZipfFit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatTable2(rows))
		}
	}
}

func BenchmarkFig1RankFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure1Series(benchScale, 1000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatFigure1(series, 8))
		}
	}
}

func BenchmarkFig2TreeModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure2()
		if i == 0 {
			b.Log("\n" + experiments.FormatFigure2(rows))
		}
	}
}

func BenchmarkFig6Baseline(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure6(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatFigure(rows))
		}
	}
}

func BenchmarkFig7Uniform(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure7(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatFigure(rows))
		}
	}
}

func BenchmarkTable3SynthValidation(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatTable3(rows))
		}
	}
}

func BenchmarkFig8aAlphaSweep(b *testing.B) {
	p := warmParams()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure8a(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatSweep("alpha", pts))
		}
	}
}

func BenchmarkFig8bBudgetSweep(b *testing.B) {
	p := warmParams()
	p.Objects = 200 // high warmth: the regime where the paper's peak shows
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure8b(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatSweep("budget%", pts))
		}
	}
}

func BenchmarkFig8cSkewSweep(b *testing.B) {
	p := warmParams()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure8c(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatSweep("skew", pts))
		}
	}
}

func BenchmarkTable4Arity(b *testing.B) {
	p := warmParams()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatTable4(rows))
		}
	}
}

func BenchmarkFig9BestCase(b *testing.B) {
	p := warmParams()
	for i := 0; i < b.N; i++ {
		steps, err := experiments.Figure9(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatFigure9(steps))
		}
	}
}

func BenchmarkFig10BridgeGap(b *testing.B) {
	p := warmParams()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure10(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatFigure10(rows))
		}
	}
}

func BenchmarkSensLatencyModels(b *testing.B) {
	p := warmParams()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SensitivityLatencyModels(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatNamedGaps("model", rows))
		}
	}
}

func BenchmarkSensCapacity(b *testing.B) {
	p := warmParams()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SensitivityCapacity(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatNamedGaps("capacity", rows))
		}
	}
}

func BenchmarkSensObjectSizes(b *testing.B) {
	p := warmParams()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SensitivityObjectSizes(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatNamedGaps("sizes", rows))
		}
	}
}

func BenchmarkAblationUniverse(b *testing.B) {
	p := warmParams()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationObjectUniverse(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatAblation(rows))
		}
	}
}

// BenchmarkSimulatorThroughput measures raw request-simulation rates for
// the two extreme designs, in requests (not artifacts) per op.
func BenchmarkSimulatorThroughput(b *testing.B) {
	net := topo.NewNetwork(topo.Abilene(), 2, 5)
	const objects = 5000
	weights := net.Topo.PopulationWeights()
	origins := trace.OriginAssignment(objects, weights, true, 3)
	reqs := trace.NewSyntheticRequests(trace.StreamConfig{
		Requests: 200000, Objects: objects, Alpha: 1.04,
		PoPWeights: weights, Leaves: net.LeavesPerTree(), Seed: 7,
	})
	base := sim.Config{
		Network: net, Objects: objects, Origins: origins,
		BudgetFraction: 0.05, BudgetPolicy: sim.BudgetProportional,
	}
	for _, d := range []sim.Design{sim.EDGE, sim.ICNSP, sim.ICNNR} {
		b.Run(d.Name, func(b *testing.B) {
			cfg := d.Apply(base)
			for i := 0; i < b.N; i++ {
				e, err := sim.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				e.Run(reqs)
			}
			b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

// BenchmarkFigure6Parallel regenerates Figure 6 (8 topologies × 6 runs)
// through the worker pool at several worker counts. On a multi-core machine
// workers=4 should be ≥2× faster than workers=1; on one core the sub-
// benchmarks coincide. Each sub-benchmark also re-checks that the rows are
// identical to the sequential run — parallelism must not change a single
// result.
func BenchmarkFigure6Parallel(b *testing.B) {
	p := benchParams()
	p.Workers = 1
	want, err := experiments.Figure6(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pw := p
			pw.Workers = workers
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Figure6(pw)
				if err != nil {
					b.Fatal(err)
				}
				if !reflect.DeepEqual(rows, want) {
					b.Fatalf("workers=%d produced different rows than workers=1", workers)
				}
			}
		})
	}
}

// BenchmarkShardedStream runs one sharded streaming simulation (sim.RunStream,
// one shard per PoP) over a fixed 200k-request workload at several worker
// counts, reporting end-to-end req/s: EDGE on ATT (trace generation and the
// per-leaf LRU do the work) and ICN-NR on Geant (nearest-replica lookup,
// replica-index upkeep and the epoch exchange do). Every sub-benchmark
// re-checks that its merged Result is bit-identical to the Workers=1 run — the
// epoch-synchronized exchange must make worker count unobservable in the
// output.
func BenchmarkShardedStream(b *testing.B) {
	const requests = 200000
	run := func(b *testing.B, prefix string, tp *topo.Topology, depth, objects int, design sim.Design, workerCounts []int) {
		net := topo.NewNetwork(tp, 2, depth)
		weights := tp.PopulationWeights()
		origins := trace.OriginAssignment(objects, weights, true, 3)
		reqs := trace.NewSyntheticRequests(trace.StreamConfig{
			Requests: requests, Objects: objects, Alpha: 1.04,
			PoPWeights: weights, Leaves: net.LeavesPerTree(), Seed: 7,
			TemporalLocality: 0.7,
		})
		cfg := design.Apply(sim.Config{
			Network: net, Objects: objects, Origins: origins,
			BudgetFraction: 0.05, BudgetPolicy: sim.BudgetProportional,
		})
		want, err := sim.RunStream(cfg, trace.Requests(reqs), sim.StreamOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range workerCounts {
			b.Run(fmt.Sprintf("%sworkers=%d", prefix, workers), func(b *testing.B) {
				opt := sim.StreamOptions{Workers: workers}
				for i := 0; i < b.N; i++ {
					got, err := sim.RunStream(cfg, trace.Requests(reqs), opt)
					if err != nil {
						b.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						b.Fatalf("workers=%d result differs from workers=1", workers)
					}
				}
				b.ReportMetric(float64(requests)*float64(b.N)/b.Elapsed().Seconds(), "req/s")
			})
		}
	}
	run(b, "", topo.ATT(), 4, 10000, sim.EDGE, []int{1, 2, 4})
	run(b, "ICN-NR/Geant/", topo.Geant(), 5, 1000, sim.ICNNR, []int{1, 2})
}

// BenchmarkFig6TraceLike regenerates Figure 6 under the trace-like stream
// (temporal locality 0.7), the configuration that recovers the paper's
// reported magnitudes (EXPERIMENTS.md).
func BenchmarkFig6TraceLike(b *testing.B) {
	p := benchParams()
	p.TemporalLocality = 0.7
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure6(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatFigure(rows))
		}
	}
}

// BenchmarkAblationLocality regenerates the reproduction's central
// calibration sweep: NR-over-EDGE gap vs stream temporal locality.
func BenchmarkAblationLocality(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.AblationTemporalLocality(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatSweep("locality", pts))
		}
	}
}

// BenchmarkDepthProfile regenerates the simulated Figure 2 counterpart.
func BenchmarkDepthProfile(b *testing.B) {
	p := benchParams()
	p.TemporalLocality = 0.7
	for i := 0; i < b.N; i++ {
		profiles, analytic, err := experiments.ServeDepthProfile(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatDepthProfile(profiles, analytic))
		}
	}
}

// BenchmarkFloodProtection regenerates the §7 flood-absorption comparison.
func BenchmarkFloodProtection(b *testing.B) {
	p := warmParams()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.FloodProtection(p, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatFlood(rows))
		}
	}
}

// BenchmarkIncrementalDeployment regenerates the §4.3 deployment ablation.
func BenchmarkIncrementalDeployment(b *testing.B) {
	p := warmParams()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationIncrementalDeployment(p, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatDeployment(rows))
		}
	}
}
