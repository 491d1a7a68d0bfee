package sim

import (
	"math"
	"reflect"
	"testing"

	"idicn/internal/topo"
	"idicn/internal/trace"
)

func TestFailurePlanValidation(t *testing.T) {
	for name, plan := range map[string]*FailurePlan{
		"fraction>1":     {Epochs: []FailureEpoch{{FailFraction: 1.5}}},
		"fraction<0":     {Epochs: []FailureEpoch{{FailFraction: -0.1}}},
		"fraction NaN":   {Epochs: []FailureEpoch{{FailFraction: math.NaN()}}},
		"negative start": {Epochs: []FailureEpoch{{Start: -1}}},
		"non-increasing": {Epochs: []FailureEpoch{{Start: 5}, {Start: 5}}},
	} {
		cfg := tinyConfig()
		cfg.FailurePlan = plan
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestEmptyPlanMatchesNilPlan: a plan with no epochs must not perturb the
// simulation at all.
func TestEmptyPlanMatchesNilPlan(t *testing.T) {
	reqs := []Request{req(0, 0, 0), req(0, 0, 0), req(0, 1, 1), req(1, 0, 0)}
	run := func(plan *FailurePlan) Result {
		cfg := tinyConfig()
		cfg.FailurePlan = plan
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e.Run(reqs)
	}
	a := run(nil)
	b := run(&FailurePlan{Seed: 7})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("empty plan diverged from nil plan:\n%+v\n%+v", a, b)
	}
}

// TestTotalFailureMatchesBaseline: with every cache down the run must behave
// exactly like the no-cache baseline.
func TestTotalFailureMatchesBaseline(t *testing.T) {
	reqs := []Request{req(0, 0, 0), req(0, 0, 0), req(0, 1, 0), req(1, 0, 3)}
	cfg := tinyConfig()
	base, err := Baseline(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FailurePlan = &FailurePlan{Epochs: []FailureEpoch{{Start: 0, FailFraction: 1}}}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Run(reqs); !reflect.DeepEqual(got, base) {
		t.Fatalf("total failure diverged from baseline:\n%+v\n%+v", got, base)
	}
}

// TestFailureRecovery: content cached before a blackout survives it; after
// the recovery epoch the node serves again without refetching.
func TestFailureRecovery(t *testing.T) {
	cfg := tinyConfig()
	cfg.FailurePlan = &FailurePlan{Epochs: []FailureEpoch{
		{Start: 1, FailFraction: 1}, // blackout after the warming request
		{Start: 2, FailFraction: 0}, // full recovery
	}}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same leaf, same object, three times: warm (origin), blackout (origin
	// again — the leaf copy is dark), recovered (leaf hit from the copy
	// cached by request 0).
	res := e.Run([]Request{req(0, 0, 0), req(0, 0, 0), req(0, 0, 0)})
	if res.Stats.Origin != 2 || res.Stats.Leaf != 1 {
		t.Fatalf("stats = %+v, want 2 origin serves and 1 leaf hit", res.Stats)
	}
	if e.FailedCacheCount() != 0 {
		t.Fatalf("FailedCacheCount = %d after recovery", e.FailedCacheCount())
	}
	checkStats(t, res)
}

// TestFailedCacheCountTracksEpochs: the seeded shuffle fails the requested
// fraction of provisioned caches, and only while the epoch is in effect.
func TestFailedCacheCountTracksEpochs(t *testing.T) {
	cfg := tinyConfig()
	cfg.FailurePlan = &FailurePlan{Seed: 42, Epochs: []FailureEpoch{
		{Start: 1, FailFraction: 0.5},
	}}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := e.CacheCount()
	if total == 0 {
		t.Fatal("no caches provisioned")
	}
	e.Run([]Request{req(0, 0, 0), req(0, 0, 1)})
	want := (total + 1) / 2
	if got := e.FailedCacheCount(); got != want {
		t.Fatalf("FailedCacheCount = %d, want %d of %d", got, want, total)
	}
}

// TestResolverDownDegradesNR: with the resolution system down, a
// nearest-replica request cannot reach an off-path replica and falls back to
// the shortest path toward the origin.
func TestResolverDownDegradesNR(t *testing.T) {
	// Leaf-only placement: request 0 plants a replica at PoP 0 leaf 0.
	// Request 1, from the sibling leaf, reaches that copy only through the
	// NR replica lookup — it is not on the shortest path to the origin at
	// PoP 1, and there is no root cache to mask the difference.
	run := func(down bool) Result {
		cfg := tinyConfig()
		cfg.Placement = PlacementEdge
		cfg.Routing = RouteNearestReplica
		if down {
			cfg.FailurePlan = &FailurePlan{Epochs: []FailureEpoch{{Start: 1, ResolverDown: true}}}
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e.Run([]Request{req(0, 0, 0), req(0, 1, 0)})
	}
	up, dn := run(false), run(true)
	// Healthy: request 1 is served from the sibling leaf's replica
	// (cross-leaf NR). Down: it walks the shortest path to the origin.
	if up.Stats.Origin != 1 {
		t.Fatalf("healthy run: stats %+v, want exactly 1 origin serve", up.Stats)
	}
	if dn.Stats.Origin != 2 {
		t.Fatalf("resolver-down run: stats %+v, want both requests at the origin", dn.Stats)
	}
	if dn.MaxOriginLoad <= up.MaxOriginLoad {
		t.Fatalf("resolver-down origin load %d not worse than healthy %d", dn.MaxOriginLoad, up.MaxOriginLoad)
	}
}

// TestFailurePlanDeterminism: identical seeds produce identical results on a
// non-trivial workload; the degradation curve is exactly reproducible.
func TestFailurePlanDeterminism(t *testing.T) {
	net := topo.NewNetwork(topo.Abilene(), 2, 3)
	const objects = 500
	weights := net.Topo.PopulationWeights()
	origins := trace.OriginAssignment(objects, weights, true, 3)
	reqs := trace.NewSyntheticRequests(trace.StreamConfig{
		Requests: 4000, Objects: objects, Alpha: 0.8, Seed: 11, PoPWeights: weights, Leaves: net.LeavesPerTree(),
	})
	run := func() Result {
		e, err := New(Config{
			Network: net, Objects: objects, Origins: origins,
			BudgetFraction: 0.01, BudgetPolicy: BudgetProportional,
			Placement: PlacementPervasive, Routing: RouteNearestReplica,
			FailurePlan: &FailurePlan{Seed: 99, Epochs: []FailureEpoch{
				{Start: 1000, FailFraction: 0.3},
				{Start: 2000, FailFraction: 0.3, ResolverDown: true},
				{Start: 3000, FailFraction: 0},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return e.Run(reqs)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	checkStats(t, a)
}
