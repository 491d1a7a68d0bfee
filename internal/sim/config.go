// Package sim implements the paper's request-level caching simulator (§4.1):
// a network of caches over PoP-level topologies with per-PoP access trees,
// the design space of cache placement x request routing, and the three
// evaluation metrics — query latency, link congestion, and origin-server
// load — reported as improvements over a no-caching baseline.
//
// The simulator is deliberately request-granular: no packet, TCP, or queueing
// effects are modelled, matching the paper's methodology. Nearest-replica
// routing and cooperative lookups are charged zero overhead, the paper's
// conservative assumption in ICN's favor.
package sim

import (
	"fmt"
	"strings"

	"idicn/internal/topo"
	"idicn/internal/trace"
)

// Placement selects which routers carry content caches (paper §3, Figure 3).
type Placement int

const (
	// PlacementPervasive caches at every router, the ICN extreme.
	PlacementPervasive Placement = iota
	// PlacementEdge caches only at access-tree leaves, the EDGE design.
	PlacementEdge
	// PlacementEdgeLevels caches at the bottom EdgeLevels levels of each
	// access tree (EdgeLevels=2 is the paper's "2-Levels" EDGE extension).
	PlacementEdgeLevels
)

// Routing selects how requests locate content (paper §3, Figure 4).
type Routing int

const (
	// RouteShortestPath sends requests along the shortest path toward the
	// origin server; any cache on the path may answer.
	RouteShortestPath Routing = iota
	// RouteNearestReplica routes requests to the closest cached copy,
	// located with zero lookup cost (the ICN-NR idealization).
	RouteNearestReplica
)

// BudgetPolicy selects how the global cache budget is divided across PoPs
// (paper §4.1 "Cache provisioning").
type BudgetPolicy int

const (
	// BudgetProportional gives each PoP a share proportional to its
	// population, split equally within its access tree.
	BudgetProportional BudgetPolicy = iota
	// BudgetUniform gives every router the same capacity.
	BudgetUniform
)

// CachePolicy selects the replacement (and admission) policy every
// provisioned cache runs. All policies implement cache.Policy, so switching
// is purely a constructor choice in the engine; see ParseCachePolicy for the
// icnsim -policy spellings.
type CachePolicy int

const (
	// PolicyLRU is the paper's default ("LRU performs near-optimally").
	PolicyLRU CachePolicy = iota
	// PolicyLFU is the alternative the paper reports as qualitatively
	// similar (frequency buckets; the one zoo member that allocates on its
	// hit path, kept for comparison rather than line-rate use).
	PolicyLFU
	// PolicyARC is the Adaptive Replacement Cache: a self-tuning
	// recency/frequency balance with ghost lists, scan-resistant where LRU
	// is not.
	PolicyARC
	// PolicyCAR is Compact CAR, the CLOCK/ARC hybrid proposed for ICN
	// line-rate routers: ARC's adaptivity with a reference-bit-only hit
	// path.
	PolicyCAR
	// PolicyTinyLFU is LRU guarded by a TinyLFU admission filter (4-bit
	// count-min sketch with periodic halving): one-hit wonders are denied
	// entry instead of displacing proven content.
	PolicyTinyLFU
	// PolicyTinyLFUARC composes the TinyLFU admission filter over an ARC
	// victim cache: admission screens one-hit wonders, ARC adapts the
	// recency/frequency split of what gets in.
	PolicyTinyLFUARC
	// PolicyTinyLFUCAR composes the TinyLFU admission filter over Compact
	// CAR, pairing the sketch-guarded door with the reference-bit hit path.
	PolicyTinyLFUCAR
)

// String returns the policy's display name, used in sweep tables and flag
// diagnostics.
func (p CachePolicy) String() string {
	switch p {
	case PolicyLRU:
		return "LRU"
	case PolicyLFU:
		return "LFU"
	case PolicyARC:
		return "ARC"
	case PolicyCAR:
		return "CAR"
	case PolicyTinyLFU:
		return "TinyLFU"
	case PolicyTinyLFUARC:
		return "TinyLFU+ARC"
	case PolicyTinyLFUCAR:
		return "TinyLFU+CAR"
	}
	return "CachePolicy(?)"
}

// ParseCachePolicy resolves an icnsim -policy flag value (lru, lfu, arc,
// car, tinylfu, tinylfu+arc, tinylfu+car; case-insensitive).
func ParseCachePolicy(s string) (CachePolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "lru":
		return PolicyLRU, nil
	case "lfu":
		return PolicyLFU, nil
	case "arc":
		return PolicyARC, nil
	case "car":
		return PolicyCAR, nil
	case "tinylfu", "tlfu":
		return PolicyTinyLFU, nil
	case "tinylfu+arc", "tlfu+arc":
		return PolicyTinyLFUARC, nil
	case "tinylfu+car", "tlfu+car":
		return PolicyTinyLFUCAR, nil
	}
	return PolicyLRU, fmt.Errorf("sim: unknown cache policy %q (want lru, lfu, arc, car, tinylfu, tinylfu+arc, or tinylfu+car)", s)
}

// CachePolicies returns every policy in sweep order.
func CachePolicies() []CachePolicy {
	return []CachePolicy{PolicyLRU, PolicyLFU, PolicyARC, PolicyCAR, PolicyTinyLFU, PolicyTinyLFUARC, PolicyTinyLFUCAR}
}

// LatencyModel selects per-hop latency costs (§5.1 "Other parameters").
type LatencyModel int

const (
	// LatencyUnit charges one unit per hop (the baseline).
	LatencyUnit LatencyModel = iota
	// LatencyArithmetic charges hops an arithmetic progression toward the
	// core: the leaf uplink costs 1, each level above costs one more, and
	// backbone hops cost depth+1.
	LatencyArithmetic
	// LatencyCoreMultiplier charges tree hops 1 and backbone hops
	// CoreFactor, the paper's "latency of each hop at the core network is d
	// times higher" model.
	LatencyCoreMultiplier
)

// Config fully describes one simulation run.
type Config struct {
	Network *topo.Network
	Objects int
	// Origins maps each object to the PoP hosting it (see
	// trace.OriginAssignment).
	Origins []int32
	// Sizes optionally gives per-object sizes for the heterogeneous-size
	// analysis; nil means unit-size objects and entry-count caches.
	Sizes []int64

	// BudgetFraction is F: the network's total cache capacity is
	// F * routers * objects (§4.1). Values >= 1 give effectively infinite
	// caches.
	BudgetFraction float64
	BudgetPolicy   BudgetPolicy
	// EdgeBudgetMultiplier scales the capacity of caching nodes under edge
	// placements (EDGE-Norm uses TreeSize/Leaves to equalize totals;
	// Double-Budget doubles that). Zero means 1.
	EdgeBudgetMultiplier float64

	Placement  Placement
	EdgeLevels int // for PlacementEdgeLevels; number of bottom levels cached

	Routing     Routing
	SiblingCoop bool // scoped sibling lookup at caching nodes (EDGE-Coop)
	// CoopScope generalizes SiblingCoop to the paper's "cooperative caching
	// within a small search scope" (§3): a caching node that misses checks
	// every cache within this tree distance (nearest first) before
	// forwarding upward. 0 disables; SiblingCoop is equivalent to scope 2.
	CoopScope int

	Policy CachePolicy

	Latency    LatencyModel
	CoreFactor float64 // for LatencyCoreMultiplier; zero means 1

	// Capacity limits how many requests a cache may serve per window of
	// CapacityWindow requests; 0 disables limits. Overloaded caches are
	// skipped and the request continues along its path (§5.1).
	Capacity       int64
	CapacityWindow int

	// Deployed optionally restricts cache deployment to a subset of PoPs
	// (true = this PoP's routers get caches); nil deploys everywhere. This
	// models the paper's incremental-deployment story (§4.3): operators add
	// edge caches PoP by PoP, and the benefit to a PoP's users should not
	// depend on adoption elsewhere.
	Deployed []bool

	// WarmupRequests excludes the first N requests of a Run from the
	// reported metrics while still exercising the caches, isolating
	// steady-state behaviour from cold-start transients. Zero (the paper's
	// methodology) reports over the whole stream.
	WarmupRequests int

	// NRLookupPenalty adds a fixed latency cost to every nearest-replica
	// serve that required the (otherwise free) replica lookup — i.e., any
	// NR request not answered by the arrival leaf itself. The paper
	// "conservatively assume[s] that routing and lookup have zero cost";
	// this knob quantifies how much of ICN-NR's edge survives if they do
	// not (see experiments.LookupPenaltyKnob).
	NRLookupPenalty float64

	// Observer, when non-nil, receives one ServeEvent per request and one
	// EvictEvent per cache eviction. The engine nil-checks it once per
	// event, so the zero-allocation serve loop is untouched when disabled.
	// An observer shared across parallel runs (see Options.Observer) must
	// be safe for concurrent use; MetricsObserver is.
	Observer Observer

	// FailurePlan, when non-nil, schedules cache-node and resolver outages
	// at request-indexed epochs (see FailurePlan). Nil keeps the serve path
	// allocation-free and failure-free.
	FailurePlan *FailurePlan
}

// Design names a point in the placement x routing design space, with the
// budget tweaks the paper's EDGE variants use. Apply stamps it onto a
// Config.
type Design struct {
	Name            string
	Placement       Placement
	EdgeLevels      int
	Routing         Routing
	SiblingCoop     bool
	CoopScope       int     // generalized cooperation radius (0 = none)
	NormalizeBudget bool    // scale edge budgets so totals match pervasive
	ExtraBudget     float64 // additional multiplier on top (Double-Budget: 2)
}

// Apply returns cfg configured for the design. The edge-budget multiplier
// for NormalizeBudget is TreeSize/CachingNodes so that the design's total
// capacity equals the pervasive total, as EDGE-Norm requires.
func (d Design) Apply(cfg Config) Config {
	cfg.Placement = d.Placement
	cfg.EdgeLevels = d.EdgeLevels
	cfg.Routing = d.Routing
	cfg.SiblingCoop = d.SiblingCoop
	cfg.CoopScope = d.CoopScope
	mult := 1.0
	if d.NormalizeBudget {
		mult = float64(cfg.Network.TreeSize()) / float64(cachingNodesPerTree(cfg.Network, d.Placement, d.EdgeLevels))
	}
	if d.ExtraBudget > 0 {
		mult *= d.ExtraBudget
	}
	cfg.EdgeBudgetMultiplier = mult
	return cfg
}

func cachingNodesPerTree(n *topo.Network, p Placement, edgeLevels int) int {
	switch p {
	case PlacementPervasive:
		return n.TreeSize()
	case PlacementEdge:
		return n.LeavesPerTree()
	case PlacementEdgeLevels:
		if edgeLevels < 1 {
			edgeLevels = 1
		}
		count := 0
		for d := n.Depth; d > n.Depth-edgeLevels && d >= 0; d-- {
			count += int(n.LevelEnd(d) - n.LevelStart(d))
		}
		return count
	}
	panic("sim: unknown placement")
}

// The paper's representative designs (§4.1).
var (
	// ICNSP: pervasive caches, shortest-path-to-origin routing.
	ICNSP = Design{Name: "ICN-SP", Placement: PlacementPervasive, Routing: RouteShortestPath}
	// ICNNR: pervasive caches with idealized nearest-replica routing.
	ICNNR = Design{Name: "ICN-NR", Placement: PlacementPervasive, Routing: RouteNearestReplica}
	// EDGE: caches only at the leaves.
	EDGE = Design{Name: "EDGE", Placement: PlacementEdge, Routing: RouteShortestPath}
	// EDGECoop: EDGE with scoped sibling cooperation.
	EDGECoop = Design{Name: "EDGE-Coop", Placement: PlacementEdge, Routing: RouteShortestPath, SiblingCoop: true}
	// EDGENorm: EDGE with leaf budgets scaled so the total capacity matches
	// the pervasive designs.
	EDGENorm = Design{Name: "EDGE-Norm", Placement: PlacementEdge, Routing: RouteShortestPath, NormalizeBudget: true}
)

// BaselineDesigns returns the five designs of Figures 6 and 7, in plot
// order.
func BaselineDesigns() []Design {
	return []Design{ICNSP, ICNNR, EDGE, EDGECoop, EDGENorm}
}

// Request re-exports the workload request type for convenience.
type Request = trace.Request
