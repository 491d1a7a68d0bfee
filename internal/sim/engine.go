package sim

import (
	"fmt"
	"math"

	"idicn/internal/cache"
	"idicn/internal/topo"
)

// Engine executes a configured simulation over a request stream. Create one
// with New for each run; an Engine carries cache state and is not reusable
// across independent experiments. Engines are not safe for concurrent use.
type Engine struct {
	cfg Config
	net *topo.Network

	caches []store // indexed by NodeID; nil where the placement has no cache
	// replicas is the nearest-replica index (nil under other routing). A
	// shard of a streaming run keeps only its own PoP's nodes here, always
	// current; every other PoP is read from the run's shared epoch-start
	// index (shardShared.replicas).
	replicas *replicaIndex

	// Load accounting (object transfers, or bytes when Sizes are given).
	treeLoad []int64
	coreLoad []int64

	originServed []int64 // per PoP
	served       []int64 // per node, within the current capacity window
	// nearestOK is the nearest-replica admissibility filter; nil when every
	// indexed replica is admissible.
	nearestOK func(topo.NodeID) bool

	// Failure-plan state (nil/zero when Config.FailurePlan is nil).
	failed       []bool  // per node: currently blacked out
	cacheNodes   []int32 // provisioned cache nodes, built lazily
	nextEpoch    int
	resolverDown bool

	totalLatency float64
	popLatency   []float64 // per arrival PoP
	popRequests  []int64
	transfers    int64
	evictions    int64
	stats        ServeStats
	servedDepth  []int64 // histogram by serving-node tree depth; origin last

	obs Observer // optional event sink; nil-checked once per event

	// sh is non-nil when this Engine runs as one shard of a sharded
	// streaming run (RunStream): it owns the caches of its own PoPs only and
	// routes effects on other shards' nodes through epoch-exchanged buffers.
	sh *engineShard

	steps []step // scratch: request path
	resp  []step // scratch: response path for NR
	respA []step // scratch: same-tree response, source-side ascent
	respB []step // scratch: same-tree response, leaf-side ascent

	// Cooperative-lookup scratch, sized to the tree and reused across
	// requests so lookupScope performs no per-request allocation.
	scopeQueue    []scopeVisit
	scopePrev     []int32 // local -> BFS predecessor; scopeUnseen when untouched
	scopeTouched  []int32 // locals whose scopePrev entry needs resetting
	scopeAncestor []bool  // local -> is an ancestor of the current start node
	scopeAncTouch []int32 // locals whose scopeAncestor entry needs resetting
	scopePath     []int32 // last hit's path, serving node -> start node

	ran bool // Run may be called once per Engine
}

type scopeVisit struct {
	node int32
	dist int
}

// scopeUnseen marks a scopePrev entry as not yet visited by the current BFS
// (-1 is taken: it terminates path reconstruction at the start node).
const scopeUnseen = int32(-2)

type step struct {
	pop   int32
	local int32
}

// ServeStats breaks down where requests were served.
type ServeStats struct {
	Leaf    int64 // at the arrival leaf's own cache
	Sibling int64 // via scoped sibling cooperation
	Tree    int64 // at another cache within an access tree
	Core    int64 // at a backbone (PoP root) cache of another PoP
	Origin  int64 // at the origin server
}

// Result summarizes one run.
type Result struct {
	Requests      int64
	MeanLatency   float64 // mean request cost under the latency model
	MaxLinkLoad   int64   // max transfers (or bytes) on any single link
	MaxOriginLoad int64   // requests served by the busiest origin PoP
	TotalOrigin   int64   // requests served by any origin
	Transfers     int64   // total link crossings by responses
	Evictions     int64   // cache evictions during the measured window
	Stats         ServeStats

	// PoPLatency and PoPRequests break mean latency down by the PoP a
	// request arrived at, supporting the incremental-deployment analysis.
	PoPLatency  []float64 // summed latency per arrival PoP
	PoPRequests []int64

	// ServedAtDepth[d] counts requests served by a cache at tree depth d
	// (index Depth = leaves, 0 = PoP roots); the final extra entry counts
	// origin serves. This is the simulated counterpart of the paper's
	// Figure 2 level fractions.
	ServedAtDepth []int64
}

// PoPMeanLatency returns the mean latency of requests arriving at pop, or
// 0 if it received none.
func (r Result) PoPMeanLatency(pop int) float64 {
	if pop < 0 || pop >= len(r.PoPRequests) || r.PoPRequests[pop] == 0 {
		return 0
	}
	return r.PoPLatency[pop] / float64(r.PoPRequests[pop])
}

// Improvement holds the paper's three normalized metrics: percent
// improvement over the no-caching baseline in mean latency, max link
// congestion, and max origin-server load. Higher is better.
type Improvement struct {
	Latency    float64
	Congestion float64
	OriginLoad float64
}

// Improvements computes percent improvements of run over base.
func Improvements(base, run Result) Improvement {
	pct := func(b, x float64) float64 {
		if b == 0 {
			return 0
		}
		return (b - x) / b * 100
	}
	return Improvement{
		Latency:    pct(base.MeanLatency, run.MeanLatency),
		Congestion: pct(float64(base.MaxLinkLoad), float64(run.MaxLinkLoad)),
		OriginLoad: pct(float64(base.MaxOriginLoad), float64(run.MaxOriginLoad)),
	}
}

// Gap returns a - b componentwise: the paper's RelImprov_A - RelImprov_B
// comparison measure (§5).
func Gap(a, b Improvement) Improvement {
	return Improvement{
		Latency:    a.Latency - b.Latency,
		Congestion: a.Congestion - b.Congestion,
		OriginLoad: a.OriginLoad - b.OriginLoad,
	}
}

// New validates cfg and builds an Engine with freshly provisioned caches.
func New(cfg Config) (*Engine, error) { return newEngine(cfg, nil) }

func newEngine(cfg Config, sh *engineShard) (*Engine, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("sim: nil network")
	}
	if cfg.Objects <= 0 {
		return nil, fmt.Errorf("sim: non-positive object count %d", cfg.Objects)
	}
	if len(cfg.Origins) != cfg.Objects {
		return nil, fmt.Errorf("sim: %d origins for %d objects", len(cfg.Origins), cfg.Objects)
	}
	for o, p := range cfg.Origins {
		if p < 0 || int(p) >= cfg.Network.PoPs() {
			return nil, fmt.Errorf("sim: object %d has origin PoP %d out of range", o, p)
		}
	}
	if cfg.Sizes != nil {
		// The size table is validated entirely at construction so the sized
		// store's per-insert indexing can never fail mid-run: the table must
		// cover the whole object universe with non-negative sizes, and Run
		// rejects any request whose object id falls outside that universe.
		if len(cfg.Sizes) != cfg.Objects {
			return nil, fmt.Errorf("sim: %d sizes for %d objects", len(cfg.Sizes), cfg.Objects)
		}
		for o, s := range cfg.Sizes {
			if s < 0 {
				return nil, fmt.Errorf("sim: object %d has negative size %d", o, s)
			}
		}
		if cfg.Policy != PolicyLRU {
			return nil, fmt.Errorf("sim: byte-budget caches (Sizes) support PolicyLRU only, not %v", cfg.Policy)
		}
	}
	if cfg.BudgetFraction < 0 {
		return nil, fmt.Errorf("sim: negative budget fraction")
	}
	if cfg.Placement == PlacementEdgeLevels && (cfg.EdgeLevels < 1 || cfg.EdgeLevels > cfg.Network.Depth+1) {
		return nil, fmt.Errorf("sim: EdgeLevels %d out of range", cfg.EdgeLevels)
	}
	if cfg.Latency == LatencyCoreMultiplier && cfg.CoreFactor <= 0 {
		cfg.CoreFactor = 1
	}
	if cfg.Capacity < 0 {
		return nil, fmt.Errorf("sim: negative capacity")
	}
	if cfg.Capacity > 0 && cfg.CapacityWindow <= 0 {
		return nil, fmt.Errorf("sim: Capacity set without a positive CapacityWindow")
	}
	if cfg.WarmupRequests < 0 {
		return nil, fmt.Errorf("sim: negative WarmupRequests")
	}
	if cfg.Deployed != nil && len(cfg.Deployed) != cfg.Network.PoPs() {
		return nil, fmt.Errorf("sim: Deployed has %d entries for %d PoPs", len(cfg.Deployed), cfg.Network.PoPs())
	}
	if cfg.EdgeBudgetMultiplier == 0 {
		cfg.EdgeBudgetMultiplier = 1
	}
	if cfg.CoopScope < 0 {
		return nil, fmt.Errorf("sim: negative CoopScope")
	}
	if cfg.SiblingCoop && cfg.CoopScope == 0 {
		cfg.CoopScope = 2 // sibling via the shared parent
	}
	if cfg.FailurePlan != nil {
		if err := cfg.FailurePlan.validate(); err != nil {
			return nil, err
		}
	}

	net := cfg.Network
	e := &Engine{
		cfg:          cfg,
		net:          net,
		caches:       make([]store, net.NodeCount()),
		treeLoad:     make([]int64, net.TreeLinks()),
		coreLoad:     make([]int64, net.CoreLinks()),
		originServed: make([]int64, net.PoPs()),
		popLatency:   make([]float64, net.PoPs()),
		popRequests:  make([]int64, net.PoPs()),
		servedDepth:  make([]int64, net.Depth+2),
		obs:          cfg.Observer,
	}
	if cfg.Routing == RouteNearestReplica {
		e.replicas = newReplicaIndex(cfg.Objects)
	}
	if cfg.Capacity > 0 {
		e.served = make([]int64, net.NodeCount())
	}
	if cfg.CoopScope > 0 {
		e.scopePrev = make([]int32, net.TreeSize())
		for i := range e.scopePrev {
			e.scopePrev[i] = scopeUnseen
		}
		e.scopeAncestor = make([]bool, net.TreeSize())
	}
	if cfg.FailurePlan != nil {
		e.failed = make([]bool, net.NodeCount())
	}
	e.sh = sh
	// Only nodes with a store enter an unsharded engine's replica index, so
	// without a capacity limit or a failure plan there is nothing to filter.
	if e.served != nil || e.failed != nil || sh != nil {
		e.nearestOK = func(n topo.NodeID) bool { return e.admissibleAny(n) }
	}
	e.provisionCaches()
	return e, nil
}

// hasCacheLocal reports whether the placement puts a cache at a tree-local
// index.
func (e *Engine) hasCacheLocal(local int32) bool {
	switch e.cfg.Placement {
	case PlacementPervasive:
		return true
	case PlacementEdge:
		return e.net.IsLeaf(local)
	case PlacementEdgeLevels:
		return e.net.DepthOf(local) > e.net.Depth-e.cfg.EdgeLevels
	}
	return false
}

func (e *Engine) provisionCaches() {
	e.forEachProvision(func(pop int, node topo.NodeID, capEntries int, slots, meanSize float64) {
		if e.sh != nil && e.sh.pop != pop {
			return // another shard owns this PoP's caches
		}
		e.caches[node] = e.newStore(node, capEntries, slots, meanSize)
	})
}

// forEachProvision runs the placement: it visits every node the config puts
// a usable cache at, with its computed size. provisionCaches materializes
// the stores; sharded runs also use it to learn the global cache layout.
func (e *Engine) forEachProvision(fn func(pop int, node topo.NodeID, capEntries int, slots, meanSize float64)) {
	net := e.net
	cfg := e.cfg
	weights := net.Topo.PopulationWeights()
	var meanSize float64
	if cfg.Sizes != nil {
		var sum int64
		for _, s := range cfg.Sizes {
			sum += s
		}
		meanSize = float64(sum) / float64(cfg.Objects)
	}
	for pop := 0; pop < net.PoPs(); pop++ {
		if cfg.Deployed != nil && !cfg.Deployed[pop] {
			continue
		}
		// Per-router budget in object slots, before the edge multiplier.
		var perRouter float64
		switch cfg.BudgetPolicy {
		case BudgetUniform:
			perRouter = cfg.BudgetFraction * float64(cfg.Objects)
		case BudgetProportional:
			total := cfg.BudgetFraction * float64(net.NodeCount()) * float64(cfg.Objects)
			perRouter = total * weights[pop] / float64(net.TreeSize())
		}
		for local := int32(0); local < int32(net.TreeSize()); local++ {
			if !e.hasCacheLocal(local) {
				continue
			}
			slots := perRouter * cfg.EdgeBudgetMultiplier
			capEntries := int(math.Round(slots))
			if capEntries > cfg.Objects || cfg.BudgetFraction >= 1 {
				capEntries = cfg.Objects
			}
			// A store that can hold nothing is no cache at all: skip it so
			// zero-budget runs (notably the no-cache baseline) pay no
			// per-node lookups. Results are unchanged — an empty store can
			// never hit — only faster.
			if cfg.Sizes != nil {
				if int64(math.Round(slots*meanSize)) <= 0 {
					continue
				}
			} else if capEntries <= 0 {
				continue
			}
			node := net.Node(pop, local)
			fn(pop, node, capEntries, slots, meanSize)
		}
	}
}

func (e *Engine) newStore(node topo.NodeID, capEntries int, slots, meanSize float64) store {
	// The eviction hook keeps the replica index honest, feeds the run's
	// eviction total, and (when an Observer is attached) emits one EvictEvent
	// per displaced object. PoP and depth are resolved once, at provisioning.
	pop, local := e.net.Split(node)
	depth := e.net.DepthOf(local)
	onEvict := func(obj int32) {
		e.evictions++
		if e.replicas != nil {
			e.riRemove(obj, node)
		}
		if e.sh != nil && local == 0 {
			e.clearRootBit(pop, obj)
		}
		if e.obs != nil {
			e.obs.ObserveEvict(EvictEvent{PoP: int32(pop), Depth: depth, Object: obj})
		}
	}
	if e.cfg.Sizes != nil {
		budget := int64(math.Round(slots * meanSize))
		return sizedStore{c: cache.NewSizedIntLRU(budget, onEvict), sizes: e.cfg.Sizes}
	}
	// Every policy implements cache.Policy, so provisioning is a plain
	// constructor switch: no adapter structs, one eviction hook shape.
	switch e.cfg.Policy {
	case PolicyLFU:
		return cache.NewIntLFU(capEntries, onEvict)
	case PolicyARC:
		return cache.NewARC(capEntries, onEvict)
	case PolicyCAR:
		return cache.NewCAR(capEntries, onEvict)
	case PolicyTinyLFU:
		return cache.NewTinyLFULRU(capEntries, onEvict)
	case PolicyTinyLFUARC:
		return cache.NewTinyLFU(cache.NewARC(capEntries, onEvict), capEntries)
	case PolicyTinyLFUCAR:
		return cache.NewTinyLFU(cache.NewCAR(capEntries, onEvict), capEntries)
	default:
		return cache.NewIntLRU(capEntries, onEvict)
	}
}

// CacheCount returns the number of routers that carry a usable cache. The
// no-cache baseline provisions zero.
func (e *Engine) CacheCount() int {
	n := 0
	for _, c := range e.caches {
		if c != nil {
			n++
		}
	}
	return n
}

// admissible reports whether a cache node may serve right now (exists, is not
// blacked out by the failure plan, and is under its capacity limit).
//
//icn:noalloc
func (e *Engine) admissible(n topo.NodeID) bool {
	if e.caches[n] == nil {
		return false
	}
	if e.failed != nil && e.failed[n] {
		return false
	}
	if e.served == nil {
		return true
	}
	return e.served[n] < e.cfg.Capacity
}

// edgeCost returns the latency cost of one hop under the configured model.
// For tree hops, childDepth is the depth of the lower endpoint; core hops
// pass childDepth < 0.
//
//icn:noalloc
func (e *Engine) edgeCost(childDepth int) float64 {
	switch e.cfg.Latency {
	case LatencyArithmetic:
		if childDepth < 0 {
			return float64(e.net.Depth + 1)
		}
		return float64(e.net.Depth - childDepth + 1)
	case LatencyCoreMultiplier:
		if childDepth < 0 {
			return e.cfg.CoreFactor
		}
		return 1
	default:
		return 1
	}
}

// loadOf returns the congestion weight of transferring obj across one link.
//
//icn:noalloc
func (e *Engine) loadOf(obj int32) int64 {
	if e.cfg.Sizes != nil {
		return e.cfg.Sizes[obj]
	}
	return 1
}

// Run simulates the request stream and returns the run's metrics. When
// Config.WarmupRequests is set, the first that many requests exercise the
// caches but are excluded from every reported metric. Run may be called
// exactly once per Engine — cache state is cumulative, so a second call
// would silently report metrics over pre-warmed caches; it panics instead.
func (e *Engine) Run(reqs []Request) Result {
	if e.ran {
		panic("sim: Engine.Run called twice; cache state is cumulative, create a new Engine (sim.New) per run")
	}
	e.ran = true
	e.validateRequests(reqs)
	warmup := e.cfg.WarmupRequests
	if warmup > len(reqs) {
		warmup = len(reqs)
	}
	var snap *snapshot
	for i, q := range reqs {
		if i == warmup && warmup > 0 {
			snap = e.snapshot()
		}
		if e.served != nil && i%e.cfg.CapacityWindow == 0 {
			clear(e.served)
		}
		if e.failed != nil {
			e.advanceFailures(int64(i))
		}
		e.serveRequest(q)
	}
	if warmup > 0 && snap == nil {
		// The whole stream was warmup.
		snap = e.snapshot()
	}
	return e.result(int64(len(reqs)-warmup), snap)
}

// validateRequests checks every request's PoP, leaf, and object id against
// the configured topology and object universe before the serve loop starts.
// Trace bugs therefore fail fast with a description of the bad request
// instead of an index-out-of-range deep inside a cache store (the sized
// store indexes the size table by object id) partway through a run.
func (e *Engine) validateRequests(reqs []Request) {
	net := e.cfg.Network
	pops := int32(net.PoPs())
	leaves := int32(net.LeavesPerTree())
	objects := int32(e.cfg.Objects)
	for i, q := range reqs {
		if q.PoP < 0 || q.PoP >= pops {
			panic(fmt.Sprintf("sim: request %d has PoP %d, want [0, %d)", i, q.PoP, pops))
		}
		if q.Leaf < 0 || q.Leaf >= leaves {
			panic(fmt.Sprintf("sim: request %d has leaf %d, want [0, %d)", i, q.Leaf, leaves))
		}
		if q.Object < 0 || q.Object >= objects {
			panic(fmt.Sprintf("sim: request %d has object %d, want [0, %d)", i, q.Object, objects))
		}
	}
}

// snapshot captures every metric counter so post-warmup deltas can be
// reported. Per-link and per-origin arrays are copied because maxima must
// be taken over differences, not differenced maxima.
type snapshot struct {
	totalLatency float64
	popLatency   []float64
	popRequests  []int64
	transfers    int64
	evictions    int64
	stats        ServeStats
	servedDepth  []int64
	treeLoad     []int64
	coreLoad     []int64
	originServed []int64
}

func (e *Engine) snapshot() *snapshot {
	return &snapshot{
		totalLatency: e.totalLatency,
		popLatency:   append([]float64(nil), e.popLatency...),
		popRequests:  append([]int64(nil), e.popRequests...),
		transfers:    e.transfers,
		evictions:    e.evictions,
		stats:        e.stats,
		servedDepth:  append([]int64(nil), e.servedDepth...),
		treeLoad:     append([]int64(nil), e.treeLoad...),
		coreLoad:     append([]int64(nil), e.coreLoad...),
		originServed: append([]int64(nil), e.originServed...),
	}
}

func (e *Engine) result(n int64, snap *snapshot) Result {
	if snap == nil {
		snap = &snapshot{
			popLatency:   make([]float64, len(e.popLatency)),
			popRequests:  make([]int64, len(e.popRequests)),
			servedDepth:  make([]int64, len(e.servedDepth)),
			treeLoad:     make([]int64, len(e.treeLoad)),
			coreLoad:     make([]int64, len(e.coreLoad)),
			originServed: make([]int64, len(e.originServed)),
		}
	}
	res := Result{
		Requests:  n,
		Transfers: e.transfers - snap.transfers,
		Evictions: e.evictions - snap.evictions,
		Stats: ServeStats{
			Leaf:    e.stats.Leaf - snap.stats.Leaf,
			Sibling: e.stats.Sibling - snap.stats.Sibling,
			Tree:    e.stats.Tree - snap.stats.Tree,
			Core:    e.stats.Core - snap.stats.Core,
			Origin:  e.stats.Origin - snap.stats.Origin,
		},
		PoPLatency:    make([]float64, len(e.popLatency)),
		PoPRequests:   make([]int64, len(e.popRequests)),
		ServedAtDepth: make([]int64, len(e.servedDepth)),
	}
	for i := range e.popLatency {
		res.PoPLatency[i] = e.popLatency[i] - snap.popLatency[i]
		res.PoPRequests[i] = e.popRequests[i] - snap.popRequests[i]
	}
	for i := range e.servedDepth {
		res.ServedAtDepth[i] = e.servedDepth[i] - snap.servedDepth[i]
	}
	if n > 0 {
		res.MeanLatency = (e.totalLatency - snap.totalLatency) / float64(n)
	}
	for i, l := range e.treeLoad {
		if d := l - snap.treeLoad[i]; d > res.MaxLinkLoad {
			res.MaxLinkLoad = d
		}
	}
	for i, l := range e.coreLoad {
		if d := l - snap.coreLoad[i]; d > res.MaxLinkLoad {
			res.MaxLinkLoad = d
		}
	}
	for i, s := range e.originServed {
		d := s - snap.originServed[i]
		res.TotalOrigin += d
		if d > res.MaxOriginLoad {
			res.MaxOriginLoad = d
		}
	}
	return res
}

// addLatency charges a request's latency to the totals and its arrival PoP.
//
//icn:noalloc
func (e *Engine) addLatency(pop int32, v float64) {
	e.totalLatency += v
	e.popLatency[pop] += v
	e.popRequests[pop]++
}

// finish completes one request: it charges the latency and, when an Observer
// is attached, emits the serve event. The nil check is the observability
// layer's entire hot-path cost when disabled.
//
//icn:noalloc
func (e *Engine) finish(q Request, level ServeLevel, depth, lookupHops int, latency float64) {
	e.addLatency(q.PoP, latency)
	if e.obs != nil {
		e.obs.ObserveServe(ServeEvent{
			PoP:        q.PoP,
			Object:     q.Object,
			Level:      level,
			Depth:      depth,
			LookupHops: lookupHops,
			Latency:    latency,
		})
	}
}

//icn:noalloc
func (e *Engine) serveRequest(q Request) {
	if e.cfg.Routing == RouteNearestReplica {
		// With the resolution system down (FailureEpoch.ResolverDown) the
		// replica lookup is unavailable; the request degrades to the shortest
		// path toward the origin, still served by any on-path cache — the
		// simulator's analogue of the proxy's direct-to-origin fallback.
		if e.resolverDown {
			e.serveShortestPath(q)
			return
		}
		e.serveNearestReplica(q)
		return
	}
	e.serveShortestPath(q)
}

// serveShortestPath walks the request up its access tree and across the
// backbone toward the origin, serving from the first admissible cache hit
// (with optional sibling cooperation), else from the origin.
//
//icn:noalloc
func (e *Engine) serveShortestPath(q Request) {
	net := e.net
	pop := int(q.PoP)
	origin := int(e.cfg.Origins[q.Object])
	// Build the request path: up the tree, then across the core.
	e.steps = e.steps[:0]
	for l := net.LeafStart() + q.Leaf; l != 0; l = net.Parent(l) {
		e.steps = append(e.steps, step{pop: q.PoP, local: l})
	}
	e.steps = append(e.steps, step{pop: q.PoP, local: 0})
	if pop != origin {
		for p := pop; p != origin; {
			p = net.CoreNextHop(p, origin)
			e.steps = append(e.steps, step{pop: int32(p), local: 0})
		}
	}

	latency := 0.0
	for i, st := range e.steps {
		node := net.Node(int(st.pop), st.local)
		atOrigin := i == len(e.steps)-1
		if !atOrigin && e.pathHit(node, q.Object) {
			level := e.recordServe(node, i, q)
			e.deliver(i, q.Object)
			e.finish(q, level, net.DepthOf(st.local), 0, latency)
			return
		}
		// Scoped cooperation: a caching node that missed checks every cache
		// within CoopScope tree hops (nearest first) before forwarding
		// upward (§3's "cooperative caching within a small search scope").
		if e.cfg.CoopScope > 0 && !atOrigin && st.local > 0 && e.caches[node] != nil {
			if peer, path, ok := e.lookupScope(int(st.pop), st.local, q.Object); ok {
				peerNode := net.Node(int(st.pop), peer)
				e.stats.Sibling++
				e.markServed(peerNode)
				detour := 0.0
				for k := 1; k < len(path); k++ {
					detour += e.treeEdgeCost(path[k-1], path[k])
				}
				e.finish(q, ServeSibling, net.DepthOf(peer), len(path)-1, latency+detour)
				e.deliverVia(i, path, q)
				return
			}
		}
		if atOrigin {
			e.originServed[origin]++
			e.stats.Origin++
			e.servedDepth[len(e.servedDepth)-1]++
			e.deliver(i, q.Object)
			e.finish(q, ServeOrigin, -1, 0, latency)
			return
		}
		// Advance one hop toward the origin.
		next := e.steps[i+1]
		if st.pop == next.pop {
			latency += e.edgeCost(net.DepthOf(st.local))
		} else {
			latency += e.edgeCost(-1)
		}
	}
}

// lookupScope breadth-first searches the access tree around local, out to
// CoopScope hops, for an admissible cache holding obj. Ancestors of local
// are traversed but not used as candidates (the shortest-path walk checks
// them anyway). On a hit it returns the serving node and the tree path from
// it back to local, and touches the serving cache.
//
// All working state (BFS queue, predecessor table, ancestor marks, result
// path) lives in Engine scratch slices reused across requests; the returned
// path aliases e.scopePath and is valid until the next lookupScope call.
//
//icn:noalloc
func (e *Engine) lookupScope(pop int, local int32, obj int32) (int32, []int32, bool) {
	net := e.net
	// Ancestors of local are excluded as candidates.
	e.scopeAncTouch = e.scopeAncTouch[:0]
	for a := local; ; a = net.Parent(a) {
		e.scopeAncestor[a] = true
		e.scopeAncTouch = append(e.scopeAncTouch, a)
		if a == 0 {
			break
		}
	}
	e.scopeTouched = e.scopeTouched[:0]
	e.scopePrev[local] = -1
	e.scopeTouched = append(e.scopeTouched, local)
	e.scopeQueue = append(e.scopeQueue[:0], scopeVisit{node: local, dist: 0})
	defer e.resetScopeScratch()
	for qi := 0; qi < len(e.scopeQueue); qi++ {
		v := e.scopeQueue[qi]
		if v.node != local && !e.scopeAncestor[v.node] {
			node := net.Node(pop, v.node)
			if e.admissible(node) && e.caches[node].Contains(obj) {
				e.caches[node].Lookup(obj) // touch recency on the serving cache
				// Reconstruct the path serving -> ... -> local.
				e.scopePath = e.scopePath[:0]
				for n := v.node; n != -1; n = e.scopePrev[n] {
					e.scopePath = append(e.scopePath, n)
				}
				return v.node, e.scopePath, true
			}
		}
		if v.dist == e.cfg.CoopScope {
			continue
		}
		// Deterministic neighbor order: parent first, then children.
		if p := net.Parent(v.node); p >= 0 {
			if e.scopePrev[p] == scopeUnseen {
				e.scopePrev[p] = v.node
				e.scopeTouched = append(e.scopeTouched, p)
				e.scopeQueue = append(e.scopeQueue, scopeVisit{node: p, dist: v.dist + 1})
			}
		}
		if c := net.FirstChild(v.node); c >= 0 {
			for k := int32(0); k < int32(net.Arity); k++ {
				child := c + k
				if int(child) >= net.TreeSize() {
					break
				}
				if e.scopePrev[child] == scopeUnseen {
					e.scopePrev[child] = v.node
					e.scopeTouched = append(e.scopeTouched, child)
					e.scopeQueue = append(e.scopeQueue, scopeVisit{node: child, dist: v.dist + 1})
				}
			}
		}
	}
	return 0, nil, false
}

// resetScopeScratch restores the touched entries of the cooperative-lookup
// tables to their idle state, in O(nodes visited) rather than O(tree size).
//
//icn:noalloc
func (e *Engine) resetScopeScratch() {
	for _, n := range e.scopeTouched {
		e.scopePrev[n] = scopeUnseen
	}
	for _, a := range e.scopeAncTouch {
		e.scopeAncestor[a] = false
	}
}

// treeEdgeCost returns the latency cost of the tree edge between two
// adjacent locals.
//
//icn:noalloc
func (e *Engine) treeEdgeCost(a, b int32) float64 {
	child := a
	if e.net.DepthOf(b) > e.net.DepthOf(a) {
		child = b
	}
	return e.edgeCost(e.net.DepthOf(child))
}

// recordServe updates serve statistics for a cache hit at request-path index
// i, charges the node's capacity, and returns where the hit landed.
//
//icn:noalloc
func (e *Engine) recordServe(node topo.NodeID, i int, q Request) ServeLevel {
	e.markServed(node)
	_, local := e.net.Split(node)
	switch {
	case i == 0:
		e.stats.Leaf++
		return ServeLeaf
	case local != 0 || e.steps[i].pop == q.PoP:
		e.stats.Tree++
		return ServeTree
	default:
		e.stats.Core++
		return ServeCore
	}
}

//icn:noalloc
func (e *Engine) markServed(node topo.NodeID) {
	if e.served != nil {
		e.served[node]++
		if e.sh != nil {
			e.sh.servedDirty = true
		}
	}
	_, local := e.net.Split(node)
	e.servedDepth[e.net.DepthOf(local)]++
}

// deliver ships the object from request-path index srcIdx back to the leaf
// (index 0), charging each link crossed and inserting the object at every
// caching node on the way (the serving node itself was already touched).
//
//icn:noalloc
func (e *Engine) deliver(srcIdx int, obj int32) {
	load := e.loadOf(obj)
	for i := srcIdx - 1; i >= 0; i-- {
		a, b := e.steps[i], e.steps[i+1] // a is nearer the leaf
		e.chargeLink(a, b, load)
		node := e.net.Node(int(a.pop), a.local)
		if e.caches[node] != nil {
			e.insert(node, obj)
		} else if e.sh != nil {
			e.remoteInsert(node, obj)
		}
	}
	if srcIdx > 0 {
		e.transfers += int64(srcIdx)
	}
}

// deliverVia ships the object along a tree path from a cooperating cache
// (path[0]) to the request-path node at missIdx (path[len-1]), then down the
// original request path to the leaf. Every caching node on the way except
// the server stores the object.
//
//icn:noalloc
func (e *Engine) deliverVia(missIdx int, path []int32, q Request) {
	load := e.loadOf(q.Object)
	pop := int(e.steps[missIdx].pop)
	for k := 1; k < len(path); k++ {
		a, b := path[k-1], path[k]
		child := a
		if e.net.DepthOf(b) > e.net.DepthOf(a) {
			child = b
		}
		e.treeLoad[e.net.TreeLinkIndex(pop, child)] += load
		e.transfers++
		if n := e.net.Node(pop, b); e.caches[n] != nil {
			e.insert(n, q.Object)
		}
	}
	// Continue down the original request path to the leaf.
	e.deliver(missIdx, q.Object)
}

//icn:noalloc
func (e *Engine) chargeLink(a, b step, load int64) {
	if a.pop == b.pop {
		// Tree link identified by its lower endpoint (the deeper local).
		child := a.local
		if e.net.DepthOf(b.local) > e.net.DepthOf(a.local) {
			child = b.local
		}
		e.treeLoad[e.net.TreeLinkIndex(int(a.pop), child)] += load
	} else {
		e.coreLoad[e.net.CoreLinkIndex(int(a.pop), int(b.pop))] += load
	}
}

//icn:noalloc
func (e *Engine) insert(node topo.NodeID, obj int32) {
	if e.failed != nil && e.failed[node] {
		return // a blacked-out node neither serves nor admits new content
	}
	e.caches[node].Insert(obj)
	if e.replicas == nil && e.sh == nil {
		return
	}
	if !e.caches[node].Contains(obj) {
		return // sized caches may reject oversize objects
	}
	if e.replicas != nil {
		e.riAdd(obj, node)
	}
	e.setRootBit(node, obj)
}

// serveNearestReplica implements ICN-NR: the request goes to the closest
// cached copy (zero-cost lookup), falling back to the origin when the origin
// is strictly closer or no admissible replica exists; a replica as far away
// as the origin wins the tie.
//
//icn:noalloc
func (e *Engine) serveNearestReplica(q Request) {
	net := e.net
	pop := int(q.PoP)
	leafLocal := net.LeafStart() + q.Leaf
	origin := int(e.cfg.Origins[q.Object])

	// Fast path: a copy at the arrival leaf is globally nearest (distance
	// 0), so the replica scan can be skipped. Popular objects — the bulk of
	// a Zipf workload — take this path.
	if leafNode := net.Node(pop, leafLocal); e.admissible(leafNode) && e.caches[leafNode].Contains(q.Object) {
		e.caches[leafNode].Lookup(q.Object)
		e.serveFromNode(q, leafNode, leafLocal, 0, 0)
		return
	}

	var originDist int
	if origin == pop {
		originDist = net.DepthOf(leafLocal)
	} else {
		originDist = net.DepthOf(leafLocal) + net.CoreDist(pop, origin)
	}

	node, dist, found := e.replicas.nearest(net, pop, leafLocal, q.Object, e.nearestOK, false)
	if e.sh != nil {
		node, dist, found = e.nearestAcrossShards(pop, leafLocal, q.Object, node, dist, found)
	}
	if found && node == net.Node(origin, 0) {
		// The origin PoP's root cache is indistinguishable from the origin
		// itself (same location, same distance): account it as the origin.
		found = false
	}
	if found && dist <= originDist {
		if c := e.caches[node]; c != nil {
			c.Lookup(q.Object) // touch the serving cache
		} else {
			e.remoteTouch(node, q.Object) // the owning shard touches at the barrier
		}
		e.serveFromNode(q, node, leafLocal, dist, e.cfg.NRLookupPenalty)
		return
	}
	// Origin serves; response returns along the shortest path.
	e.originServed[origin]++
	e.stats.Origin++
	e.servedDepth[len(e.servedDepth)-1]++
	e.serveFromNode(q, net.Node(origin, 0), leafLocal, 0, 0)
}

// serveFromNode accounts latency, link loads, and response-path caching for
// a response travelling from src to the request leaf. lookupHops records how
// far the replica lookup reached (0 for leaf hits and origin serves) and
// extra is a fixed latency surcharge (the NR lookup penalty), both folded
// into the request's completion accounting.
//
//icn:noalloc
func (e *Engine) serveFromNode(q Request, src topo.NodeID, leafLocal int32, lookupHops int, extra float64) {
	net := e.net
	pop := int(q.PoP)
	srcPop, srcLocal := net.Split(src)
	e.resp = e.resp[:0]

	if srcPop == pop {
		// Same tree: src up to the LCA, then down to the leaf. The two
		// ascents land in reused Engine scratch, not per-request slices.
		a, b := srcLocal, leafLocal
		upA, upB := e.respA[:0], e.respB[:0]
		for a != b {
			da, db := net.DepthOf(a), net.DepthOf(b)
			if da >= db {
				upA = append(upA, step{pop: q.PoP, local: a})
				a = net.Parent(a)
			} else {
				upB = append(upB, step{pop: q.PoP, local: b})
				b = net.Parent(b)
			}
		}
		e.respA, e.respB = upA, upB
		e.resp = append(e.resp, upA...)
		e.resp = append(e.resp, step{pop: q.PoP, local: a}) // the LCA
		for i := len(upB) - 1; i >= 0; i-- {
			e.resp = append(e.resp, upB[i])
		}
	} else {
		// Up the remote tree, across the core, down the local tree.
		for l := srcLocal; l != 0; l = net.Parent(l) {
			e.resp = append(e.resp, step{pop: int32(srcPop), local: l})
		}
		e.resp = append(e.resp, step{pop: int32(srcPop), local: 0})
		for p := srcPop; p != pop; {
			p = net.CoreNextHop(p, pop)
			e.resp = append(e.resp, step{pop: int32(p), local: 0})
		}
		// Down from the local root to the leaf: ancestors in reverse.
		base := len(e.resp)
		for l := leafLocal; l != 0; l = net.Parent(l) {
			e.resp = append(e.resp, step{pop: q.PoP, local: l})
		}
		for i, j := base, len(e.resp)-1; i < j; i, j = i+1, j-1 {
			e.resp[i], e.resp[j] = e.resp[j], e.resp[i]
		}
	}

	// Serve statistics for cache hits (origin hits were counted already).
	level, depth := ServeOrigin, -1
	if e.cacheAt(src) && !(srcPop == int(e.cfg.Origins[q.Object]) && srcLocal == 0) {
		e.markServed(src)
		depth = net.DepthOf(srcLocal)
		switch {
		case src == net.Node(pop, leafLocal):
			e.stats.Leaf++
			level = ServeLeaf
		case srcPop == pop || srcLocal != 0:
			e.stats.Tree++
			level = ServeTree
		default:
			e.stats.Core++
			level = ServeCore
		}
	}

	// Walk the response path: accumulate latency, charge links, insert at
	// caching nodes (all but the source).
	load := e.loadOf(q.Object)
	latency := 0.0
	for i := 1; i < len(e.resp); i++ {
		a, b := e.resp[i-1], e.resp[i]
		if a.pop == b.pop {
			child := a.local
			if net.DepthOf(b.local) > net.DepthOf(a.local) {
				child = b.local
			}
			latency += e.edgeCost(net.DepthOf(child))
		} else {
			latency += e.edgeCost(-1)
		}
		e.chargeLink(a, b, load)
		node := net.Node(int(b.pop), b.local)
		if e.caches[node] != nil {
			e.insert(node, q.Object)
		} else if e.sh != nil {
			e.remoteInsert(node, q.Object)
		}
	}
	e.transfers += int64(len(e.resp) - 1)
	e.finish(q, level, depth, lookupHops, latency+extra)
}
