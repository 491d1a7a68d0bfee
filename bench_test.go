// Benchmark harness: BenchmarkExperiments regenerates every artifact in
// experiments.Registry (the paper's tables and figures plus the repo's own
// checks and ablations) at a laptop-friendly scale and logs the resulting
// rows (visible with `go test -bench . -v`); EXPERIMENTS.md records a full
// paper-versus-measured comparison produced with cmd/icnsim at larger
// scale. The other two benchmarks time the worker pool and the sharded
// streaming loop, and check that neither changes a result.
package idicn_test

import (
	"fmt"
	"os"
	"path/filepath"
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

// BenchmarkExperiments has one sub-benchmark per registered experiment id;
// ns/op is the cost of regenerating that artifact once. trace-designs reads
// a small Asia-model request log written to a temp dir.
func BenchmarkExperiments(b *testing.B) {
	p := benchParams()
	p.TraceFile = filepath.Join(b.TempDir(), "asia.log")
	f, err := os.Create(p.TraceFile)
	if err != nil {
		b.Fatal(err)
	}
	if err := trace.WriteLog(f, trace.Asia(0.003).Generate()); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	for _, e := range experiments.Registry {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := e.Run(p)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Log("\n" + out)
				}
			}
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
