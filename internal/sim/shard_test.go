package sim

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"

	"idicn/internal/topo"
	"idicn/internal/trace"
)

// shardWorkload is sweepWorkload with the knobs the sharded runner must
// synchronize across epochs: warmup, capacity windows, and a failure plan
// whose epochs do not align with the stream's epoch length.
func shardWorkload(t testing.TB) (Config, []Request) {
	t.Helper()
	cfg, reqs := sweepWorkload(t)
	cfg.WarmupRequests = 5000
	cfg.Capacity = 200
	cfg.CapacityWindow = 3000
	cfg.FailurePlan = &FailurePlan{
		Seed: 99,
		Epochs: []FailureEpoch{
			{Start: 7100, FailFraction: 0.3},
			{Start: 11500, FailFraction: 0.1, ResolverDown: true},
			{Start: 15000},
		},
	}
	return cfg, reqs
}

// TestRunStreamMatchesSequentialSinglePoP pins the exact-equivalence
// contract: with one PoP there is one shard, no cross-shard effects exist,
// and RunStream must reproduce Engine.Run bit for bit — floats included.
func TestRunStreamMatchesSequentialSinglePoP(t *testing.T) {
	net := topo.NewNetwork(linePoPs(1), 2, 3)
	const objects = 200
	origins := trace.OriginAssignment(objects, []float64{1}, true, 5)
	reqs := trace.NewSyntheticRequests(trace.StreamConfig{
		Requests: 8000, Objects: objects, Alpha: 0.9,
		PoPWeights: []float64{1}, Leaves: net.LeavesPerTree(), Seed: 21,
		TemporalLocality: 0.3,
	})
	base := Config{
		Network: net, Objects: objects, Origins: origins,
		BudgetFraction: 0.08, BudgetPolicy: BudgetUniform,
		WarmupRequests: 1000, Capacity: 150, CapacityWindow: 700,
	}
	for _, d := range BaselineDesigns() {
		t.Run(d.Name, func(t *testing.T) {
			cfg := d.Apply(base)
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := e.Run(reqs)
			got, err := RunStream(cfg, trace.Requests(reqs), StreamOptions{Workers: 1, EpochLen: 512})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("RunStream diverges from Engine.Run:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestRunStreamDeterministicAcrossWorkers pins the tentpole contract: on a
// multi-PoP topology with cooperation, capacity limits, and a failure plan,
// the full Result — every field, floats included — is identical for any
// worker count.
func TestRunStreamDeterministicAcrossWorkers(t *testing.T) {
	cfg, reqs := shardWorkload(t)
	workerCounts := []int{1, 2, 7, runtime.NumCPU()}
	for _, d := range []Design{EDGE, EDGECoop, ICNSP, ICNNR} {
		t.Run(d.Name, func(t *testing.T) {
			dcfg := d.Apply(cfg)
			var want Result
			for i, w := range workerCounts {
				got, err := RunStream(dcfg, trace.Requests(reqs), StreamOptions{Workers: w, EpochLen: 1024})
				if err != nil {
					t.Fatal(err)
				}
				sum := got.Stats.Leaf + got.Stats.Sibling + got.Stats.Tree + got.Stats.Core + got.Stats.Origin
				if sum != got.Requests {
					t.Fatalf("Workers=%d: serve stats sum to %d for %d requests", w, sum, got.Requests)
				}
				if i == 0 {
					want = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Workers=%d result differs from Workers=%d:\n got %+v\nwant %+v",
						w, workerCounts[0], got, want)
				}
			}
		})
	}
}

// TestRunStreamDeterministicAcrossWorkersPolicies repeats the bit-equality
// check for every cache policy in the zoo: ARC's adaptation target, CAR's
// clock hands, and TinyLFU's sketch are all per-shard state, so the result
// must not depend on how many workers drive the shards.
func TestRunStreamDeterministicAcrossWorkersPolicies(t *testing.T) {
	cfg, reqs := shardWorkload(t)
	workerCounts := []int{1, 2, 7}
	for _, pol := range CachePolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			dcfg := EDGECoop.Apply(cfg)
			dcfg.Policy = pol
			var want Result
			for i, w := range workerCounts {
				got, err := RunStream(dcfg, trace.Requests(reqs), StreamOptions{Workers: w, EpochLen: 1024})
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					want = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Workers=%d result differs from Workers=%d:\n got %+v\nwant %+v",
						w, workerCounts[0], got, want)
				}
			}
		})
	}
}

// TestRunStreamEdgeMatchesSequential: under edge-only placement with
// shortest-path routing every cache interaction stays inside the arrival
// PoP's tree, so even the multi-PoP sharded run must agree exactly with the
// sequential engine on every integer metric; MeanLatency may differ only by
// float summation order.
func TestRunStreamEdgeMatchesSequential(t *testing.T) {
	cfg, reqs := shardWorkload(t)
	dcfg := EDGE.Apply(cfg)
	e, err := New(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	want := e.Run(reqs)
	got, err := RunStream(dcfg, trace.Requests(reqs), StreamOptions{Workers: 3, EpochLen: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.MeanLatency-want.MeanLatency) > 1e-9*math.Abs(want.MeanLatency) {
		t.Errorf("MeanLatency: got %v, want %v", got.MeanLatency, want.MeanLatency)
	}
	got.MeanLatency = want.MeanLatency
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("EDGE sharded run diverges from sequential:\n got %+v\nwant %+v", got, want)
	}
}

// TestRunStreamEpochLenInvariantWithoutCrossShardState: when no state
// crosses shards, the epoch length must not matter either.
func TestRunStreamEpochLenInvariantWithoutCrossShardState(t *testing.T) {
	cfg, reqs := sweepWorkload(t)
	dcfg := EDGECoop.Apply(cfg)
	want, err := RunStream(dcfg, trace.Requests(reqs), StreamOptions{Workers: 2, EpochLen: 256})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunStream(dcfg, trace.Requests(reqs), StreamOptions{Workers: 2, EpochLen: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("EDGE-Coop result depends on EpochLen:\n got %+v\nwant %+v", got, want)
	}
}

// TestRunStreamFromBinaryTrace: simulating from a recorded binary trace is
// identical to simulating the requests it encodes.
func TestRunStreamFromBinaryTrace(t *testing.T) {
	cfg, reqs := sweepWorkload(t)
	dcfg := ICNNR.Apply(cfg)
	want, err := RunStream(dcfg, trace.Requests(reqs), StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	meta := trace.BinaryMeta{
		PoPs:    cfg.Network.PoPs(),
		Leaves:  cfg.Network.LeavesPerTree(),
		Objects: cfg.Objects, Requests: int64(len(reqs)),
	}
	if err := trace.WriteBinaryTrace(&buf, meta, trace.Requests(reqs)); err != nil {
		t.Fatal(err)
	}
	br, err := trace.NewBinaryReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunStream(dcfg, br, StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("binary-trace run diverges from in-memory run")
	}
}

// TestRunStreamRejectsOutOfRangeRequests: a stream whose records exceed the
// topology or object space must fail, not corrupt the run.
func TestRunStreamRejectsOutOfRangeRequests(t *testing.T) {
	cfg, reqs := sweepWorkload(t)
	dcfg := EDGE.Apply(cfg)
	for name, bad := range map[string]Request{
		"pop":    {PoP: int32(cfg.Network.PoPs()), Leaf: 0, Object: 0},
		"leaf":   {PoP: 0, Leaf: int32(cfg.Network.LeavesPerTree()), Object: 0},
		"object": {PoP: 0, Leaf: 0, Object: int32(cfg.Objects)},
	} {
		stream := trace.Requests(append(append([]Request{}, reqs[:100]...), bad))
		if _, err := RunStream(dcfg, stream, StreamOptions{Workers: 2}); err == nil {
			t.Errorf("%s: out-of-range request accepted", name)
		}
	}
}

// TestRunStreamShorterThanWarmup: a stream that ends inside the warmup
// window reports zero measured requests without dividing by zero.
func TestRunStreamShorterThanWarmup(t *testing.T) {
	cfg, reqs := sweepWorkload(t)
	cfg.WarmupRequests = len(reqs) * 2
	res, err := RunStream(EDGE.Apply(cfg), trace.Requests(reqs), StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 0 || res.MeanLatency != 0 {
		t.Fatalf("all-warmup run reported %+v", res)
	}
}

// TestShardServeRequestAllocationFree pins the per-shard serve path's
// noalloc property: once warm — effect buffers grown, caches full — serving
// a request on a shard allocates nothing, so a multi-billion-request run's
// steady state is GC-free. Buffers are trimmed between iterations exactly
// as the epoch barrier leaves them (len 0, capacity kept).
func TestShardServeRequestAllocationFree(t *testing.T) {
	for _, d := range []Design{EDGE, EDGECoop, ICNSP, ICNNR} {
		t.Run(d.Name, func(t *testing.T) {
			cfg, reqs := sweepWorkload(t)
			engines, shared, err := newShardedEngines(d.Apply(cfg))
			if err != nil {
				t.Fatal(err)
			}
			warm := reqs[:len(reqs)/2]
			for _, q := range warm {
				engines[q.PoP].serveRequest(q)
			}
			exchange(engines, shared)
			tail := reqs[len(reqs)/2:]
			i := 0
			perReq := testing.AllocsPerRun(2000, func() {
				q := tail[i%len(tail)]
				i++
				e := engines[q.PoP]
				e.serveRequest(q)
				e.sh.ops = e.sh.ops[:0]
				e.sh.riLog = e.sh.riLog[:0]
			})
			if perReq > 0.01 {
				t.Fatalf("%s: %.4f allocs/request on the shard serve path, want ~0", d.Name, perReq)
			}
		})
	}
}

// BenchmarkRunStreamEdgeAbilene measures sharded streaming throughput on
// the same workload as BenchmarkRunAbilene/EDGE, for a like-for-like
// comparison against the sequential engine.
func BenchmarkRunStreamEdgeAbilene(b *testing.B) {
	net := topo.NewNetwork(topo.Abilene(), 2, 5)
	const objects = 5000
	weights := net.Topo.PopulationWeights()
	origins := trace.OriginAssignment(objects, weights, true, 3)
	reqs := trace.NewSyntheticRequests(trace.StreamConfig{
		Requests: 100000, Objects: objects, Alpha: 1.04,
		PoPWeights: weights, Leaves: net.LeavesPerTree(), Seed: 7,
	})
	cfg := EDGE.Apply(Config{
		Network: net, Objects: objects, Origins: origins,
		BudgetFraction: 0.05, BudgetPolicy: BudgetProportional,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunStream(cfg, trace.Requests(reqs), StreamOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
