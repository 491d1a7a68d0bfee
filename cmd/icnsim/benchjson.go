package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"idicn/internal/experiments"
	"idicn/internal/sim"
	"idicn/internal/topo"
	"idicn/internal/trace"
)

// BenchRecord is one hot-path measurement in the BENCH_sim.json perf log.
// NsPerOp and AllocsPerOp are per unit of work (a simulated request for the
// serve benchmarks, a whole artifact regeneration for the figure
// benchmarks), so numbers stay comparable across PRs even if batch sizes
// change.
type BenchRecord struct {
	Name        string  `json:"name"`
	Unit        string  `json:"unit"` // "request" or "artifact"
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	Workers     int     `json:"workers,omitempty"`

	// RequestsPerSec and Time are set by the sharded streaming series
	// (`make bench` / icnsim -bench-append): end-to-end throughput of one
	// RunStream at the record's worker count, stamped when measured so the
	// series accumulates a history across PRs.
	RequestsPerSec float64 `json:"requests_per_sec,omitempty"`
	Time           string  `json:"time,omitempty"`
}

// writeBenchJSON runs the simulator's hot-path benchmarks via
// testing.Benchmark and writes the results as JSON, so the perf trajectory
// of the engine is tracked across PRs without a manual `go test -bench`
// transcript. Invoked by `icnsim -bench-json <file>`.
func writeBenchJSON(path string) error {
	var records []BenchRecord

	// Raw serve throughput: one full Engine.Run over a 200k-request stream,
	// normalized per request. Covers all three routing/placement extremes,
	// including the cooperative-lookup path.
	net := topo.NewNetwork(topo.Abilene(), 2, 5)
	const objects = 5000
	const requests = 200000
	weights := net.Topo.PopulationWeights()
	origins := trace.OriginAssignment(objects, weights, true, 3)
	reqs := trace.NewSyntheticRequests(trace.StreamConfig{
		Requests: requests, Objects: objects, Alpha: 1.04,
		PoPWeights: weights, Leaves: net.LeavesPerTree(), Seed: 7,
	})
	base := sim.Config{
		Network: net, Objects: objects, Origins: origins,
		BudgetFraction: 0.05, BudgetPolicy: sim.BudgetProportional,
	}
	for _, d := range []sim.Design{sim.EDGE, sim.EDGECoop, sim.ICNSP, sim.ICNNR} {
		cfg := d.Apply(base)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e, err := sim.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				e.Run(reqs)
			}
		})
		records = append(records, BenchRecord{
			Name:        "ServeRequest/" + d.Name,
			Unit:        "request",
			NsPerOp:     float64(res.NsPerOp()) / requests,
			AllocsPerOp: float64(res.AllocsPerOp()) / requests,
			BytesPerOp:  float64(res.AllocedBytesPerOp()) / requests,
		})
	}

	// Figure 6 regeneration at bench scale, at one worker and at the
	// default pool, tracking the parallel-sweep speedup.
	p := experiments.DefaultParams(0.02)
	for _, workers := range []int{1, sim.DefaultWorkers()} {
		pw := p
		pw.Workers = workers
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Figure6(pw); err != nil {
					b.Fatal(err)
				}
			}
		})
		records = append(records, BenchRecord{
			Name:        "Figure6",
			Unit:        "artifact",
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: float64(res.AllocsPerOp()),
			BytesPerOp:  float64(res.AllocedBytesPerOp()),
			Workers:     workers,
		})
		if workers == sim.DefaultWorkers() {
			break // avoid a duplicate row when GOMAXPROCS is 1
		}
	}

	records = append(records, policySmokeRecords()...)
	records = append(records, shardedStreamRecords()...)

	out, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "icnsim: wrote %d benchmark records to %s\n", len(records), path)
	return nil
}

// streamWorkerCounts is the bench series' worker ladder: one core, half the
// cores, all cores — deduplicated, so a single-core machine contributes one
// honest row instead of three identical ones.
func streamWorkerCounts() []int {
	all := sim.DefaultWorkers()
	half := all / 2
	if half < 1 {
		half = 1
	}
	counts := []int{1}
	if half > 1 {
		counts = append(counts, half)
	}
	if all > half {
		counts = append(counts, all)
	}
	return counts
}

// shardedStreamRecords measures end-to-end sharded streaming throughput
// (sim.RunStream) at 1, half, and all cores on two fixed workloads — 2M
// requests of EDGE on ATT (generation and the per-leaf LRU do the work) and
// 250k of ICN-NR on Geant (nearest-replica lookup, replica-index upkeep and
// the epoch exchange do) — verifying along the way that every worker count
// produces the identical Result. Invoked by both -bench-json and
// -bench-append.
func shardedStreamRecords() []BenchRecord {
	stamp := time.Now().UTC().Format(time.RFC3339)
	var records []BenchRecord
	for _, w := range []struct {
		name              string
		tp                *topo.Topology
		depth             int
		design            sim.Design
		objects, requests int
	}{
		{"ShardedStream/EDGE", topo.ATT(), 4, sim.EDGE, 20000, 2_000_000},
		{"ShardedStream/ICN-NR/Geant", topo.Geant(), 5, sim.ICNNR, 1000, 250_000},
	} {
		net := topo.NewNetwork(w.tp, 2, w.depth)
		weights := w.tp.PopulationWeights()
		origins := trace.OriginAssignment(w.objects, weights, true, 3)
		reqs := trace.NewSyntheticRequests(trace.StreamConfig{
			Requests: w.requests, Objects: w.objects, Alpha: 1.04,
			PoPWeights: weights, Leaves: net.LeavesPerTree(), Seed: 7,
			TemporalLocality: 0.7,
		})
		cfg := w.design.Apply(sim.Config{
			Network: net, Objects: w.objects, Origins: origins,
			BudgetFraction: 0.05, BudgetPolicy: sim.BudgetProportional,
		})

		var want sim.Result
		for i, workers := range streamWorkerCounts() {
			opt := sim.StreamOptions{Workers: workers}
			got, err := sim.RunStream(cfg, trace.Requests(reqs), opt)
			if err != nil {
				panic(fmt.Sprintf("icnsim: sharded bench: %v", err))
			}
			if i == 0 {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				panic(fmt.Sprintf("icnsim: sharded bench: %s Workers=%d result differs from Workers=1", w.name, workers))
			}
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sim.RunStream(cfg, trace.Requests(reqs), opt); err != nil {
						b.Fatal(err)
					}
				}
			})
			perReq := float64(res.NsPerOp()) / float64(w.requests)
			records = append(records, BenchRecord{
				Name:           w.name,
				Unit:           "request",
				NsPerOp:        perReq,
				Workers:        workers,
				RequestsPerSec: 1e9 / perReq,
				Time:           stamp,
			})
		}
	}
	return records
}

// policySmokeRecords measures per-request serve cost for every cache policy
// in the zoo on a fixed EDGE workload — one full Engine.Run per policy,
// normalized per request — so BENCH_sim.json carries a ns/request series per
// policy across PRs. Timestamped like the sharded series because `make
// bench` appends it to a growing history.
func policySmokeRecords() []BenchRecord {
	stamp := time.Now().UTC().Format(time.RFC3339)
	net := topo.NewNetwork(topo.Abilene(), 2, 5)
	const objects = 5000
	const requests = 200000
	weights := net.Topo.PopulationWeights()
	origins := trace.OriginAssignment(objects, weights, true, 3)
	reqs := trace.NewSyntheticRequests(trace.StreamConfig{
		Requests: requests, Objects: objects, Alpha: 1.04,
		PoPWeights: weights, Leaves: net.LeavesPerTree(), Seed: 7,
	})
	base := sim.EDGE.Apply(sim.Config{
		Network: net, Objects: objects, Origins: origins,
		BudgetFraction: 0.05, BudgetPolicy: sim.BudgetProportional,
	})

	var records []BenchRecord
	for _, pol := range sim.CachePolicies() {
		cfg := base
		cfg.Policy = pol
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e, err := sim.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				e.Run(reqs)
			}
		})
		records = append(records, BenchRecord{
			Name:        "ServeRequest/Policy-" + pol.String(),
			Unit:        "request",
			NsPerOp:     float64(res.NsPerOp()) / requests,
			AllocsPerOp: float64(res.AllocsPerOp()) / requests,
			BytesPerOp:  float64(res.AllocedBytesPerOp()) / requests,
			Time:        stamp,
		})
	}
	return records
}

// appendBenchJSON appends freshly measured policy-smoke and
// sharded-throughput series to the perf log, preserving existing records —
// `make bench` uses it to grow a timestamped history.
func appendBenchJSON(path string) error {
	var records []BenchRecord
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &records); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	fresh := policySmokeRecords()
	fresh = append(fresh, shardedStreamRecords()...)
	records = append(records, fresh...)
	out, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "icnsim: appended %d benchmark records to %s\n", len(fresh), path)
	return nil
}
