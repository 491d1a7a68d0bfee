package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"idicn/internal/cache"
	"idicn/internal/topo"
	"idicn/internal/trace"
)

// linePoPs builds a line topology 0-1-...-(n-1) with equal populations, so
// proportional and uniform budgeting coincide.
func linePoPs(n int) *topo.Topology {
	g := topo.NewGraph(n)
	names := make([]string, n)
	pops := make([]float64, n)
	for i := 0; i < n; i++ {
		names[i] = "p"
		pops[i] = 1
		if i > 0 {
			if err := g.AddEdge(i-1, i); err != nil {
				panic(err)
			}
		}
	}
	return &topo.Topology{Name: "line", Graph: g, PoPNames: names, Population: pops}
}

// tinyConfig: 2 PoPs, arity 2, depth 1 (root + 2 leaves per tree), 10
// objects all owned by PoP 1, generous caches.
func tinyConfig() Config {
	net := topo.NewNetwork(linePoPs(2), 2, 1)
	origins := make([]int32, 10)
	for i := range origins {
		origins[i] = 1
	}
	return Config{
		Network:        net,
		Objects:        10,
		Origins:        origins,
		BudgetFraction: 0.5, // 5 entries per cache
		BudgetPolicy:   BudgetUniform,
	}
}

func req(pop, leaf, obj int32) Request { return Request{PoP: pop, Leaf: leaf, Object: obj} }

func checkStats(t *testing.T, res Result) {
	t.Helper()
	sum := res.Stats.Leaf + res.Stats.Sibling + res.Stats.Tree + res.Stats.Core + res.Stats.Origin
	if sum != res.Requests {
		t.Fatalf("serve stats %+v sum to %d, want %d requests", res.Stats, sum, res.Requests)
	}
}

func TestBaselineNoCache(t *testing.T) {
	cfg := tinyConfig()
	// One request from PoP 0's first leaf for object 0 (origin PoP 1):
	// leaf -> root (1 hop) -> core (1 hop) = distance 2.
	res, err := Baseline(cfg, []Request{req(0, 0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanLatency != 2 {
		t.Errorf("MeanLatency = %v, want 2", res.MeanLatency)
	}
	if res.MaxLinkLoad != 1 {
		t.Errorf("MaxLinkLoad = %d, want 1", res.MaxLinkLoad)
	}
	if res.MaxOriginLoad != 1 || res.TotalOrigin != 1 {
		t.Errorf("origin loads = %d/%d, want 1/1", res.MaxOriginLoad, res.TotalOrigin)
	}
	if res.Transfers != 2 {
		t.Errorf("Transfers = %d, want 2", res.Transfers)
	}
	checkStats(t, res)
}

func TestEdgeCachesAtLeafOnly(t *testing.T) {
	cfg := EDGE.Apply(tinyConfig())
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Repeat the same request: first misses (served at origin, distance 2),
	// second hits the leaf cache (distance 0).
	res := e.Run([]Request{req(0, 0, 0), req(0, 0, 0)})
	if res.MeanLatency != 1 { // (2 + 0) / 2
		t.Errorf("MeanLatency = %v, want 1", res.MeanLatency)
	}
	if res.Stats.Leaf != 1 || res.Stats.Origin != 1 {
		t.Errorf("stats = %+v", res.Stats)
	}
	// A request from the sibling leaf must NOT see the cached copy in EDGE.
	// (Run is once-per-Engine, so feed the extra request directly.)
	e.serveRequest(req(0, 1, 0))
	if e.stats.Origin != 2 {
		t.Errorf("sibling leaf should miss in plain EDGE; origin served %d, want 2", e.stats.Origin)
	}
}

func TestEdgePlacementHasNoInteriorCaches(t *testing.T) {
	cfg := EDGE.Apply(tinyConfig())
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net := cfg.Network
	for pop := 0; pop < net.PoPs(); pop++ {
		if e.caches[net.Node(pop, 0)] != nil {
			t.Fatalf("PoP %d root has a cache under EDGE placement", pop)
		}
		for l := net.LeafStart(); l < int32(net.TreeSize()); l++ {
			if e.caches[net.Node(pop, l)] == nil {
				t.Fatalf("leaf %d of PoP %d lacks a cache under EDGE", l, pop)
			}
		}
	}
}

func TestICNSPCachesOnResponsePath(t *testing.T) {
	cfg := ICNSP.Apply(tinyConfig())
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First request seeds caches at PoP0's root and leaf 0 (response path
	// origin -> root0 -> leaf0). Second request from leaf 1 must then hit at
	// the shared root: distance 1.
	res := e.Run([]Request{req(0, 0, 0), req(0, 1, 0)})
	if res.Stats.Tree != 1 || res.Stats.Origin != 1 {
		t.Errorf("stats = %+v, want one tree hit and one origin serve", res.Stats)
	}
	wantMean := (2.0 + 1.0) / 2
	if res.MeanLatency != wantMean {
		t.Errorf("MeanLatency = %v, want %v", res.MeanLatency, wantMean)
	}
	checkStats(t, res)
}

func TestICNSPIntermediatePoPCacheHit(t *testing.T) {
	// Three PoPs in a line; origin at PoP 2; requester at PoP 0. After the
	// first request, PoP 1's root holds the object; a second request from a
	// PoP 1 leaf hits its own root (tree hit), and a third from PoP 0's
	// other leaf hits PoP 0's root.
	net := topo.NewNetwork(linePoPs(3), 2, 1)
	origins := []int32{2}
	cfg := ICNSP.Apply(Config{
		Network: net, Objects: 1, Origins: origins,
		BudgetFraction: 1, BudgetPolicy: BudgetUniform,
	})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run([]Request{req(0, 0, 0), req(1, 0, 0), req(0, 1, 0)})
	if res.Stats.Origin != 1 || res.Stats.Tree != 2 {
		t.Errorf("stats = %+v, want 1 origin + 2 tree", res.Stats)
	}
	// Latencies: 1+2 core hops = 3; then 1; then 1.
	if got, want := res.MeanLatency, (3.0+1+1)/3; got != want {
		t.Errorf("MeanLatency = %v, want %v", got, want)
	}
	checkStats(t, res)
}

func TestEdgeCoopSiblingServe(t *testing.T) {
	cfg := EDGECoop.Apply(tinyConfig())
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Seed leaf 0 via a normal miss, then request from leaf 1: the sibling
	// lookup should serve it at cost 2 (up to parent, down to sibling).
	res := e.Run([]Request{req(0, 0, 0), req(0, 1, 0)})
	if res.Stats.Sibling != 1 {
		t.Fatalf("stats = %+v, want one sibling serve", res.Stats)
	}
	if got, want := res.MeanLatency, (2.0+2.0)/2; got != want {
		t.Errorf("MeanLatency = %v, want %v", got, want)
	}
	// The response path caches at leaf 1, so a repeat is a local hit.
	// (Run is once-per-Engine, so feed the extra request directly.)
	e.serveRequest(req(0, 1, 0))
	if e.stats.Leaf != 1 {
		t.Errorf("repeat after coop serve: leaf hits = %d, want 1", e.stats.Leaf)
	}
	checkStats(t, res)
}

func TestNearestReplicaPrefersCloserCopy(t *testing.T) {
	cfg := ICNNR.Apply(tinyConfig())
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Request 1 from PoP0 leaf0: origin serves; response caches at root0 and
	// leaf0. Request 2 from PoP0 leaf1: nearest replica is root0 at
	// distance 1 (leaf0 would be distance 2).
	res := e.Run([]Request{req(0, 0, 0), req(0, 1, 0)})
	if res.Stats.Tree != 1 {
		t.Fatalf("stats = %+v, want one tree (root) hit", res.Stats)
	}
	if got, want := res.MeanLatency, (2.0+1.0)/2; got != want {
		t.Errorf("MeanLatency = %v, want %v", got, want)
	}
	checkStats(t, res)
}

func TestNearestReplicaCrossTree(t *testing.T) {
	// Line of 3 PoPs, origin at PoP 2, first request from PoP 0 seeds
	// replicas at roots 0 and 1 and leaf(0,0). A request from PoP 1's leaf
	// then finds its own root (distance 1) rather than the origin
	// (distance 2).
	net := topo.NewNetwork(linePoPs(3), 2, 1)
	cfg := ICNNR.Apply(Config{
		Network: net, Objects: 1, Origins: []int32{2},
		BudgetFraction: 1, BudgetPolicy: BudgetUniform,
	})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run([]Request{req(0, 0, 0), req(1, 0, 0)})
	if res.Stats.Origin != 1 || res.Stats.Tree != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	if got, want := res.MeanLatency, (3.0+1.0)/2; got != want {
		t.Errorf("MeanLatency = %v, want %v", got, want)
	}
	checkStats(t, res)
}

func TestNearestReplicaFallsBackToOrigin(t *testing.T) {
	cfg := ICNNR.Apply(tinyConfig())
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run([]Request{req(0, 0, 3)})
	if res.Stats.Origin != 1 {
		t.Fatalf("stats = %+v, want pure origin serve", res.Stats)
	}
	if res.MeanLatency != 2 {
		t.Errorf("MeanLatency = %v, want 2", res.MeanLatency)
	}
}

func TestReplicaIndexStaysConsistent(t *testing.T) {
	// Small caches force evictions; afterwards the replica index must agree
	// exactly with cache contents.
	net := topo.NewNetwork(linePoPs(3), 2, 2)
	const objects = 50
	origins := trace.OriginAssignment(objects, []float64{1, 1, 1}, true, 1)
	cfg := ICNNR.Apply(Config{
		Network: net, Objects: objects, Origins: origins,
		BudgetFraction: 0.06, BudgetPolicy: BudgetUniform, // 3-entry caches
	})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	reqs := make([]Request, 3000)
	for i := range reqs {
		reqs[i] = req(int32(r.Intn(3)), int32(r.Intn(net.LeavesPerTree())), int32(r.Intn(objects)))
	}
	res := e.Run(reqs)
	checkStats(t, res)
	for obj := int32(0); obj < objects; obj++ {
		want := map[topo.NodeID]bool{}
		for n := topo.NodeID(0); int(n) < net.NodeCount(); n++ {
			if e.caches[n] != nil && e.caches[n].Contains(obj) {
				want[n] = true
			}
		}
		got := e.replicas.perObj[obj]
		if len(got) != len(want) {
			t.Fatalf("object %d: index has %d replicas, caches hold %d", obj, len(got), len(want))
		}
		for _, n := range got {
			if !want[n] {
				t.Fatalf("object %d: index lists node %d which does not cache it", obj, n)
			}
		}
	}
}

func TestCapacityLimitRedirects(t *testing.T) {
	cfg := EDGE.Apply(tinyConfig())
	cfg.Capacity = 1
	cfg.CapacityWindow = 100
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the leaf cache, then issue two more identical requests in the
	// same window: the first is a leaf hit (capacity now exhausted), the
	// second must be redirected to the origin.
	res := e.Run([]Request{req(0, 0, 0), req(0, 0, 0), req(0, 0, 0)})
	if res.Stats.Leaf != 1 || res.Stats.Origin != 2 {
		t.Errorf("stats = %+v, want 1 leaf + 2 origin", res.Stats)
	}
	checkStats(t, res)
}

func TestCapacityWindowResets(t *testing.T) {
	cfg := EDGE.Apply(tinyConfig())
	cfg.Capacity = 1
	cfg.CapacityWindow = 2
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Window 1: miss (origin) + leaf hit. Window 2 starts at request 3:
	// capacity restored, leaf hit again.
	res := e.Run([]Request{req(0, 0, 0), req(0, 0, 0), req(0, 0, 0)})
	if res.Stats.Leaf != 2 || res.Stats.Origin != 1 {
		t.Errorf("stats = %+v, want 2 leaf + 1 origin", res.Stats)
	}
}

func TestUniformBudgetSizesCaches(t *testing.T) {
	cfg := tinyConfig()
	cfg.BudgetFraction = 0.3 // 3 of 10 objects
	e, err := New(ICNSP.Apply(cfg))
	if err != nil {
		t.Fatal(err)
	}
	leaf := cfg.Network.Node(0, cfg.Network.LeafStart())
	s, ok := e.caches[leaf].(*cache.IntLRU)
	if !ok {
		t.Fatalf("cache type %T, want *cache.IntLRU", e.caches[leaf])
	}
	if s.Cap() != 3 {
		t.Errorf("leaf capacity = %d, want 3", s.Cap())
	}
}

func TestEdgeNormScalesBudgets(t *testing.T) {
	cfg := tinyConfig() // tree size 3, leaves 2 -> norm multiplier 1.5
	e, err := New(EDGENorm.Apply(cfg))
	if err != nil {
		t.Fatal(err)
	}
	leaf := cfg.Network.Node(0, cfg.Network.LeafStart())
	s := e.caches[leaf].(*cache.IntLRU)
	// Uniform per-router budget is 5; normalized: 5 * 3/2 = 7.5 -> 8.
	if s.Cap() != 8 {
		t.Errorf("normalized leaf capacity = %d, want 8", s.Cap())
	}
	// Total capacity must now approximate the pervasive total (2 PoPs * 3
	// routers * 5 = 30; EDGE-Norm: 4 leaves * 8 = 32, within rounding).
}

func TestProportionalBudget(t *testing.T) {
	g := topo.NewGraph(2)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	tp := &topo.Topology{Name: "uneven", Graph: g, PoPNames: []string{"a", "b"}, Population: []float64{1, 3}}
	net := topo.NewNetwork(tp, 2, 1)
	origins := make([]int32, 100)
	cfg := ICNSP.Apply(Config{
		Network: net, Objects: 100, Origins: origins,
		BudgetFraction: 0.05, BudgetPolicy: BudgetProportional,
	})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Total budget = 0.05 * 6 routers * 100 objects = 30 slots.
	// PoP0 share 25% = 7.5 -> 2.5/router; PoP1 share 75% = 22.5 -> 7.5/router.
	c0 := e.caches[net.Node(0, 0)].(*cache.IntLRU).Cap()
	c1 := e.caches[net.Node(1, 0)].(*cache.IntLRU).Cap()
	if c0 != 2 && c0 != 3 {
		t.Errorf("PoP0 per-router capacity = %d, want ~2.5", c0)
	}
	if c1 != 7 && c1 != 8 {
		t.Errorf("PoP1 per-router capacity = %d, want ~7.5", c1)
	}
	if c1 <= c0 {
		t.Errorf("proportional budgeting did not favor the populous PoP: %d vs %d", c0, c1)
	}
}

func TestLatencyModels(t *testing.T) {
	// Depth-2 trees: leaf at depth 2. Request to remote origin crosses
	// leaf->d1 (cost 1 unit), d1->root (cost 2 arithmetic), core (depth+1=3).
	net := topo.NewNetwork(linePoPs(2), 2, 2)
	cfg := Config{
		Network: net, Objects: 1, Origins: []int32{1},
		BudgetFraction: 0, BudgetPolicy: BudgetUniform,
	}
	run := func(m LatencyModel, factor float64) float64 {
		c := cfg
		c.Latency = m
		c.CoreFactor = factor
		res, err := RunConfig(ICNSP.Apply(c), []Request{req(0, 0, 0)})
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanLatency
	}
	if got := run(LatencyUnit, 0); got != 3 {
		t.Errorf("unit latency = %v, want 3", got)
	}
	// Arithmetic: leaf hop (depth2) costs 1, depth1 hop costs 2, core costs 3.
	if got := run(LatencyArithmetic, 0); got != 6 {
		t.Errorf("arithmetic latency = %v, want 6", got)
	}
	// Core multiplier 5: 1 + 1 + 5.
	if got := run(LatencyCoreMultiplier, 5); got != 7 {
		t.Errorf("core-multiplier latency = %v, want 7", got)
	}
}

func TestHeterogeneousSizes(t *testing.T) {
	cfg := EDGE.Apply(tinyConfig())
	cfg.Sizes = []int64{100, 100, 100, 100, 100, 100, 100, 100, 100, 1000}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Byte budget per cache = 5 slots * mean 190 = 950: object 9 (1000B)
	// can never be cached.
	res := e.Run([]Request{req(0, 0, 9), req(0, 0, 9)})
	if res.Stats.Origin != 2 {
		t.Errorf("oversize object served from cache: %+v", res.Stats)
	}
	// Congestion counts bytes now.
	if res.MaxLinkLoad != 2000 {
		t.Errorf("MaxLinkLoad = %d, want 2000 bytes", res.MaxLinkLoad)
	}
	// A small object is cached fine. (Run is once-per-Engine, so feed the
	// extra requests directly.)
	e.serveRequest(req(0, 0, 0))
	e.serveRequest(req(0, 0, 0))
	if e.stats.Leaf != 1 {
		t.Errorf("small object not cached: %+v", e.stats)
	}
}

func TestLFUPolicyRuns(t *testing.T) {
	cfg := ICNSP.Apply(tinyConfig())
	cfg.Policy = PolicyLFU
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run([]Request{req(0, 0, 0), req(0, 0, 0), req(0, 1, 0)})
	checkStats(t, res)
	if res.Stats.Leaf < 1 {
		t.Errorf("LFU stats = %+v, want at least one leaf hit", res.Stats)
	}
}

func TestInfiniteBudget(t *testing.T) {
	cfg := tinyConfig()
	cfg.BudgetFraction = 1
	e, err := New(EDGE.Apply(cfg))
	if err != nil {
		t.Fatal(err)
	}
	leaf := cfg.Network.Node(0, cfg.Network.LeafStart())
	if got := e.caches[leaf].(*cache.IntLRU).Cap(); got != cfg.Objects {
		t.Errorf("infinite-budget capacity = %d, want %d", got, cfg.Objects)
	}
}

func TestConfigValidation(t *testing.T) {
	good := tinyConfig()
	cases := map[string]func(*Config){
		"nil network":     func(c *Config) { c.Network = nil },
		"objects":         func(c *Config) { c.Objects = 0 },
		"origins len":     func(c *Config) { c.Origins = c.Origins[:3] },
		"origin range":    func(c *Config) { c.Origins[0] = 99 },
		"sizes len":       func(c *Config) { c.Sizes = []int64{1} },
		"budget":          func(c *Config) { c.BudgetFraction = -0.1 },
		"edge levels":     func(c *Config) { c.Placement = PlacementEdgeLevels; c.EdgeLevels = 0 },
		"capacity":        func(c *Config) { c.Capacity = -1 },
		"capacity window": func(c *Config) { c.Capacity = 5; c.CapacityWindow = 0 },
		"negative size": func(c *Config) {
			c.Sizes = make([]int64, c.Objects)
			c.Sizes[2] = -5
		},
		"sizes with non-LRU policy": func(c *Config) {
			c.Sizes = make([]int64, c.Objects)
			for i := range c.Sizes {
				c.Sizes[i] = 1
			}
			c.Policy = PolicyARC
		},
	}
	for name, mutate := range cases {
		cfg := good
		cfg.Origins = append([]int32(nil), good.Origins...)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
	if _, err := New(good); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestRunValidatesRequests(t *testing.T) {
	cases := map[string]Request{
		"pop":    req(7, 0, 0),
		"leaf":   req(0, 9, 0),
		"object": req(0, 0, 42),
	}
	for name, bad := range cases {
		e, err := New(EDGE.Apply(tinyConfig()))
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: out-of-range request accepted", name)
				}
			}()
			e.Run([]Request{req(0, 0, 1), bad})
		}()
	}
}

func TestImprovementsAndGap(t *testing.T) {
	base := Result{MeanLatency: 4, MaxLinkLoad: 100, MaxOriginLoad: 50}
	run := Result{MeanLatency: 2, MaxLinkLoad: 80, MaxOriginLoad: 25}
	imp := Improvements(base, run)
	if imp.Latency != 50 || imp.Congestion != 20 || imp.OriginLoad != 50 {
		t.Errorf("Improvements = %+v", imp)
	}
	g := Gap(imp, Improvement{Latency: 40, Congestion: 25, OriginLoad: 50})
	if g.Latency != 10 || g.Congestion != -5 || g.OriginLoad != 0 {
		t.Errorf("Gap = %+v", g)
	}
	zero := Improvements(Result{}, run)
	if zero.Latency != 0 {
		t.Errorf("zero baseline should yield 0 improvement, got %+v", zero)
	}
}

func TestCompareDesignsOrderingInvariants(t *testing.T) {
	// On a realistic workload: every design improves on no caching, and
	// pervasive+NR is at least as good as plain EDGE on latency.
	net := topo.NewNetwork(topo.Abilene(), 2, 3)
	const objects = 400
	weights := net.Topo.PopulationWeights()
	origins := trace.OriginAssignment(objects, weights, true, 3)
	reqs := trace.NewSyntheticRequests(trace.StreamConfig{
		Requests: 20000, Objects: objects, Alpha: 0.9,
		PoPWeights: weights, Leaves: net.LeavesPerTree(), Seed: 11,
	})
	cfg := Config{
		Network: net, Objects: objects, Origins: origins,
		BudgetFraction: 0.05, BudgetPolicy: BudgetProportional,
	}
	results, err := Compare(cfg, BaselineDesigns(), reqs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]DesignResult{}
	for _, r := range results {
		byName[r.Design.Name] = r
		if r.Improvement.Latency <= 0 {
			t.Errorf("%s: latency improvement %v, want > 0", r.Design.Name, r.Improvement.Latency)
		}
		if r.Improvement.OriginLoad <= 0 {
			t.Errorf("%s: origin-load improvement %v, want > 0", r.Design.Name, r.Improvement.OriginLoad)
		}
		checkStats(t, r.Raw)
	}
	if byName["ICN-NR"].Improvement.Latency < byName["EDGE"].Improvement.Latency {
		t.Errorf("ICN-NR (%v) worse than EDGE (%v) on latency",
			byName["ICN-NR"].Improvement.Latency, byName["EDGE"].Improvement.Latency)
	}
	// EDGE-Coop should be at least as good as plain EDGE.
	if byName["EDGE-Coop"].Improvement.Latency < byName["EDGE"].Improvement.Latency-0.5 {
		t.Errorf("EDGE-Coop (%v) materially worse than EDGE (%v)",
			byName["EDGE-Coop"].Improvement.Latency, byName["EDGE"].Improvement.Latency)
	}
	// The headline result: the ICN-NR vs EDGE gap is modest (paper: <=9%
	// baseline, <=17% worst case). Allow slack for the small test workload.
	gap := Gap(byName["ICN-NR"].Improvement, byName["EDGE"].Improvement)
	if gap.Latency > 25 {
		t.Errorf("ICN-NR over EDGE latency gap = %v%%, implausibly large", gap.Latency)
	}
}

// Property: for random tiny workloads, serve stats always sum to the request
// count and latency is non-negative, under every design.
func TestServeAccountingQuick(t *testing.T) {
	net := topo.NewNetwork(linePoPs(3), 2, 2)
	origins := trace.OriginAssignment(30, []float64{1, 1, 1}, true, 5)
	designs := append(BaselineDesigns(),
		Design{Name: "2L", Placement: PlacementEdgeLevels, EdgeLevels: 2, Routing: RouteShortestPath},
		Design{Name: "2L-Coop", Placement: PlacementEdgeLevels, EdgeLevels: 2, Routing: RouteShortestPath, SiblingCoop: true},
	)
	f := func(seed int64, dRaw uint8) bool {
		d := designs[int(dRaw)%len(designs)]
		cfg := d.Apply(Config{
			Network: net, Objects: 30, Origins: origins,
			BudgetFraction: 0.1, BudgetPolicy: BudgetUniform,
		})
		e, err := New(cfg)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		reqs := make([]Request, 300)
		for i := range reqs {
			reqs[i] = req(int32(r.Intn(3)), int32(r.Intn(net.LeavesPerTree())), int32(r.Intn(30)))
		}
		res := e.Run(reqs)
		sum := res.Stats.Leaf + res.Stats.Sibling + res.Stats.Tree + res.Stats.Core + res.Stats.Origin
		return sum == res.Requests && res.MeanLatency >= 0 && res.MaxLinkLoad >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// BenchmarkRunAbilene times one whole unsharded Engine.Run (engine build
// included) over a 100k-request Abilene stream, per design, in req/s.
func BenchmarkRunAbilene(b *testing.B) {
	net := topo.NewNetwork(topo.Abilene(), 2, 5)
	const objects = 5000
	weights := net.Topo.PopulationWeights()
	origins := trace.OriginAssignment(objects, weights, true, 3)
	reqs := trace.NewSyntheticRequests(trace.StreamConfig{
		Requests: 100000, Objects: objects, Alpha: 1.04,
		PoPWeights: weights, Leaves: net.LeavesPerTree(), Seed: 7,
	})
	base := Config{
		Network: net, Objects: objects, Origins: origins,
		BudgetFraction: 0.05, BudgetPolicy: BudgetProportional,
	}
	for _, d := range []Design{EDGE, ICNSP, ICNNR} {
		b.Run(d.Name, func(b *testing.B) {
			cfg := d.Apply(base)
			for i := 0; i < b.N; i++ {
				e, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				e.Run(reqs)
			}
			b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

func TestPartialDeployment(t *testing.T) {
	net := topo.NewNetwork(linePoPs(2), 2, 1)
	origins := []int32{1} // origin at PoP 1
	cfg := EDGE.Apply(Config{
		Network: net, Objects: 1, Origins: origins,
		BudgetFraction: 1, BudgetPolicy: BudgetUniform,
		Deployed: []bool{true, false}, // only PoP 0 has caches
	})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// PoP 0's leaves cache; PoP 1's leaves must not.
	if e.caches[net.Leaf(0, 0)] == nil {
		t.Fatal("deployed PoP lacks caches")
	}
	if e.caches[net.Leaf(1, 0)] != nil {
		t.Fatal("undeployed PoP has caches")
	}
	// Requests from PoP 0 benefit on repeat; from PoP 1 never do.
	res := e.Run([]Request{
		req(0, 0, 0), req(0, 0, 0), // miss then hit
		req(1, 0, 0), req(1, 0, 0), // always origin
	})
	if res.Stats.Leaf != 1 || res.Stats.Origin != 3 {
		t.Errorf("stats = %+v, want 1 leaf hit, 3 origin", res.Stats)
	}
	// Per-PoP accounting: PoP 0 mean latency (2+0)/2 = 1; PoP 1 = 1 (depth).
	if got := res.PoPMeanLatency(0); got != 1 {
		t.Errorf("PoP 0 mean latency = %v, want 1", got)
	}
	if got := res.PoPMeanLatency(1); got != 1 {
		t.Errorf("PoP 1 mean latency = %v, want 1", got)
	}
	if res.PoPRequests[0] != 2 || res.PoPRequests[1] != 2 {
		t.Errorf("PoPRequests = %v", res.PoPRequests)
	}
}

func TestDeployedValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.Deployed = []bool{true} // wrong length for 2 PoPs
	if _, err := New(cfg); err == nil {
		t.Fatal("mismatched Deployed length accepted")
	}
}

func TestNRLookupPenalty(t *testing.T) {
	cfg := ICNNR.Apply(tinyConfig())
	cfg.NRLookupPenalty = 10
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Request 1: origin serve (no penalty: no replica lookup served it).
	// Request 2 from the sibling leaf: replica at root, distance 1 + penalty.
	res := e.Run([]Request{req(0, 0, 0), req(0, 1, 0)})
	want := (2.0 + 1.0 + 10.0) / 2
	if res.MeanLatency != want {
		t.Errorf("MeanLatency = %v, want %v", res.MeanLatency, want)
	}
	// The leaf fast path must NOT pay the penalty.
	e2, _ := New(cfg)
	res2 := e2.Run([]Request{req(0, 0, 0), req(0, 0, 0)})
	if got, wantFast := res2.MeanLatency, (2.0+0.0)/2; got != wantFast {
		t.Errorf("leaf fast path paid the penalty: %v, want %v", got, wantFast)
	}
}

func TestPoPMeanLatencyOutOfRange(t *testing.T) {
	var r Result
	if r.PoPMeanLatency(0) != 0 || r.PoPMeanLatency(-1) != 0 {
		t.Error("empty result should yield 0 mean latency")
	}
}

// Property: with unit-size objects, the sum of per-link loads equals the
// total link crossings the engine reports (conservation), under every
// design and a random workload.
func TestLinkLoadConservationQuick(t *testing.T) {
	net := topo.NewNetwork(linePoPs(3), 2, 2)
	origins := trace.OriginAssignment(40, []float64{1, 1, 1}, true, 5)
	designs := BaselineDesigns()
	f := func(seed int64, dRaw uint8) bool {
		d := designs[int(dRaw)%len(designs)]
		cfg := d.Apply(Config{
			Network: net, Objects: 40, Origins: origins,
			BudgetFraction: 0.1, BudgetPolicy: BudgetUniform,
		})
		e, err := New(cfg)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		reqs := make([]Request, 400)
		for i := range reqs {
			reqs[i] = req(int32(r.Intn(3)), int32(r.Intn(net.LeavesPerTree())), int32(r.Intn(40)))
		}
		res := e.Run(reqs)
		var sum int64
		for _, l := range e.treeLoad {
			sum += l
		}
		for _, l := range e.coreLoad {
			sum += l
		}
		return sum == res.Transfers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: per-PoP latency totals always sum to the global mean.
func TestPerPoPLatencyConservationQuick(t *testing.T) {
	net := topo.NewNetwork(linePoPs(4), 2, 2)
	origins := trace.OriginAssignment(30, []float64{1, 1, 1, 1}, false, 6)
	f := func(seed int64) bool {
		cfg := ICNNR.Apply(Config{
			Network: net, Objects: 30, Origins: origins,
			BudgetFraction: 0.1, BudgetPolicy: BudgetUniform,
		})
		e, err := New(cfg)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		reqs := make([]Request, 300)
		for i := range reqs {
			reqs[i] = req(int32(r.Intn(4)), int32(r.Intn(net.LeavesPerTree())), int32(r.Intn(30)))
		}
		res := e.Run(reqs)
		var latSum float64
		var nSum int64
		for p := range res.PoPLatency {
			latSum += res.PoPLatency[p]
			nSum += res.PoPRequests[p]
		}
		if nSum != res.Requests {
			return false
		}
		diff := latSum/float64(res.Requests) - res.MeanLatency
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestWarmupExcludedFromMetrics(t *testing.T) {
	cfg := EDGE.Apply(tinyConfig())
	cfg.WarmupRequests = 1
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Request 1 (warmup): miss to origin, seeds the leaf. Request 2: hit.
	res := e.Run([]Request{req(0, 0, 0), req(0, 0, 0)})
	if res.Requests != 1 {
		t.Fatalf("Requests = %d, want 1 (warmup excluded)", res.Requests)
	}
	if res.MeanLatency != 0 {
		t.Errorf("MeanLatency = %v, want 0 (post-warmup request was a hit)", res.MeanLatency)
	}
	if res.Stats.Origin != 0 || res.Stats.Leaf != 1 {
		t.Errorf("stats = %+v", res.Stats)
	}
	if res.MaxLinkLoad != 0 || res.TotalOrigin != 0 {
		t.Errorf("loads = link %d origin %d, want 0", res.MaxLinkLoad, res.TotalOrigin)
	}
}

func TestWarmupLongerThanStream(t *testing.T) {
	cfg := EDGE.Apply(tinyConfig())
	cfg.WarmupRequests = 10
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run([]Request{req(0, 0, 0)})
	if res.Requests != 0 || res.MeanLatency != 0 {
		t.Errorf("res = %+v, want empty", res)
	}
}

func TestWarmupValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.WarmupRequests = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative warmup accepted")
	}
}

// BenchmarkNearestReplicaLookup measures replicaIndex.nearest alone, on what
// a run actually asks of it: the replica sets of an ICN-NR engine warmed on
// Geant with the paper's 2-ary depth-5 trees, the lookups its next requests
// perform (those that miss the arrival leaf), and the engine's own filter —
// none for the plain design, the admissibility closure once a capacity limit
// is set. Sub-benchmarks split the lookups by replica-set size, because the
// cost that matters is on the large sets: a synthetic index with a replica or
// two per object reads a few ns whatever the lookup does.
func BenchmarkNearestReplicaLookup(b *testing.B) {
	net := topo.NewNetwork(topo.Geant(), 2, 5)
	const objects = 2000
	weights := net.Topo.PopulationWeights()
	reqs := trace.NewSyntheticRequests(trace.StreamConfig{
		Requests: 100000, Objects: objects, Alpha: 1.04,
		PoPWeights: weights, Leaves: net.LeavesPerTree(), Seed: 7,
	})
	warm, tail := reqs[:80000], reqs[80000:]
	type lookup struct {
		pop       int
		leafLocal int32
		obj       int32
	}
	sizes := []struct {
		name string
		max  int // exclusive
	}{{"replicas=1-31", 32}, {"replicas=32-255", 256}, {"replicas=256+", net.NodeCount() + 1}}
	for _, f := range []struct {
		name     string
		capacity int64
	}{{"filter=none", 0}, {"filter=capacity", 1 << 40}} {
		e, err := New(ICNNR.Apply(Config{
			Network: net, Objects: objects,
			Origins:        trace.OriginAssignment(objects, weights, true, 3),
			BudgetFraction: 0.05, BudgetPolicy: BudgetProportional,
			Capacity: f.capacity, CapacityWindow: 1 << 40,
		}))
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range warm {
			e.serveRequest(q)
		}
		if (e.nearestOK == nil) != (f.capacity == 0) {
			b.Fatalf("%s: engine filter nil = %v", f.name, e.nearestOK == nil)
		}
		bySize := make([][]lookup, len(sizes))
		for _, q := range tail {
			leafLocal := net.LeafStart() + q.Leaf
			if e.caches[net.Node(int(q.PoP), leafLocal)].Contains(q.Object) {
				continue // served at the arrival leaf without a lookup
			}
			i := 0
			for len(e.replicas.perObj[q.Object]) >= sizes[i].max {
				i++
			}
			bySize[i] = append(bySize[i], lookup{int(q.PoP), leafLocal, q.Object})
		}
		for i, size := range sizes {
			b.Run(f.name+"/"+size.name, func(b *testing.B) {
				ls := bySize[i]
				if len(ls) == 0 {
					b.Skip("the warmed engine has no replica set this size")
				}
				replicas := 0
				for _, l := range ls {
					replicas += len(e.replicas.perObj[l.obj])
				}
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					l := ls[n%len(ls)]
					e.replicas.nearest(net, l.pop, l.leafLocal, l.obj, e.nearestOK, false)
				}
				b.ReportMetric(float64(replicas)/float64(len(ls)), "replicas/lookup")
			})
		}
	}
}

// coopEngine builds a single-PoP depth-2 binary tree (leaves at ordinals
// 0..3) with EDGE placement and the given cooperation scope.
func coopEngine(t *testing.T, scope int) *Engine {
	t.Helper()
	net := topo.NewNetwork(linePoPs(1), 2, 2)
	cfg := Config{
		Network: net, Objects: 1, Origins: []int32{0},
		BudgetFraction: 1, BudgetPolicy: BudgetUniform,
		Placement: PlacementEdge, Routing: RouteShortestPath,
		CoopScope: scope,
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCoopScopeReachesCousins(t *testing.T) {
	// Leaf ordinal 0's sibling is ordinal 1 (dist 2); cousins 2,3 are at
	// dist 4. Seed a cousin, then probe from leaf 0.
	stream := []Request{req(0, 2, 0), req(0, 0, 0)}

	// Scope 2 cannot see the cousin: both requests hit the origin (the
	// seeding miss and the probe).
	res2 := coopEngine(t, 2).Run(stream)
	if res2.Stats.Sibling != 0 || res2.Stats.Origin != 2 {
		t.Errorf("scope 2 stats = %+v, want two origin serves", res2.Stats)
	}
	// Scope 4 reaches the cousin at distance 4; mean = (2 + 4) / 2.
	res4 := coopEngine(t, 4).Run(stream)
	if res4.Stats.Sibling != 1 || res4.Stats.Origin != 1 {
		t.Fatalf("scope 4 stats = %+v, want one cooperative serve", res4.Stats)
	}
	if res4.MeanLatency != 3 {
		t.Errorf("scope 4 mean latency = %v, want 3", res4.MeanLatency)
	}
	checkStats(t, res4)
}

func TestCoopScopePrefersNearest(t *testing.T) {
	// Seed leaf 1 (origin serve, 2 hops); seed leaf 2, which scope-4
	// cooperation serves from leaf 1's cousin copy (4 hops); then probe
	// from leaf 0, which must use its sibling leaf 1 (2 hops), not the
	// equally-cached but farther cousin: mean = (2 + 4 + 2) / 3.
	e := coopEngine(t, 4)
	res := e.Run([]Request{req(0, 1, 0), req(0, 2, 0), req(0, 0, 0)})
	if res.Stats.Sibling != 2 || res.Stats.Origin != 1 {
		t.Errorf("stats = %+v, want two cooperative serves", res.Stats)
	}
	if want := 8.0 / 3; res.MeanLatency != want {
		t.Errorf("mean latency = %v, want %v", res.MeanLatency, want)
	}
}

func TestCoopScopeValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.CoopScope = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative CoopScope accepted")
	}
}
