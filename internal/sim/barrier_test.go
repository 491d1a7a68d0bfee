package sim

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"idicn/internal/topo"
	"idicn/internal/trace"
)

// nrStreamWorkload is an ICN-NR streaming config on the named topology,
// small enough for a unit test yet cold enough that every epoch inserts and
// evicts across PoPs.
func nrStreamWorkload(t testing.TB, tp *topo.Topology, requests int) (Config, []Request) {
	t.Helper()
	net := topo.NewNetwork(tp, 2, 3)
	const objects = 600
	weights := tp.PopulationWeights()
	reqs := trace.NewSyntheticRequests(trace.StreamConfig{
		Requests: requests, Objects: objects, Alpha: 1.04,
		PoPWeights: weights, Leaves: net.LeavesPerTree(), Seed: 17,
	})
	cfg := ICNNR.Apply(Config{
		Network: net, Objects: objects,
		Origins:        trace.OriginAssignment(objects, weights, true, 5),
		BudgetFraction: 0.05, BudgetPolicy: BudgetProportional,
	})
	return cfg, reqs
}

// partitionEpoch splits one epoch's requests by arrival PoP, as RunStream's
// reader does.
func partitionEpoch(per [][]Request, reqs []Request) {
	for p := range per {
		per[p] = per[p][:0]
	}
	for _, q := range reqs {
		per[q.PoP] = append(per[q.PoP], q)
	}
}

// popRange returns the contiguous node-id range [lo, hi) of engine p's PoP.
func popRange(net *topo.Network, p int) (lo, hi topo.NodeID) {
	lo = net.Node(p, 0)
	return lo, lo + topo.NodeID(net.TreeSize())
}

// checkOwnIndexInRange fails if a shard's live index holds a node outside
// the shard's own PoP.
func checkOwnIndexInRange(t *testing.T, engines []*Engine) {
	t.Helper()
	for p, e := range engines {
		lo, hi := popRange(e.net, p)
		for obj, row := range e.replicas.perObj {
			for _, n := range row {
				if n < lo || n >= hi {
					t.Fatalf("shard %d's live index lists object %d at node %d, outside its PoP range [%d, %d)", p, obj, n, lo, hi)
				}
			}
		}
	}
}

// checkSharedEqualsOwn pins the barrier invariant: the shared index
// restricted to a PoP is exactly that PoP's live index.
func checkSharedEqualsOwn(t *testing.T, engines []*Engine, shared *shardShared) {
	t.Helper()
	for obj, row := range shared.replicas.perObj {
		var union []topo.NodeID
		for _, e := range engines {
			union = append(union, e.replicas.perObj[obj]...)
		}
		if !slices.Equal(row, union) {
			t.Fatalf("object %d: shared index %v != concatenated per-PoP live indexes %v", obj, row, union)
		}
	}
}

// TestBarrierAppliesEachReplicaDeltaOnce is the deterministic work-count gate
// for the ICN-NR streaming cliff: per barrier, the number of replica-index
// mutations equals the number of deltas the shards logged — with the mirror
// design it was (P-1) times that. No timing involved.
func TestBarrierAppliesEachReplicaDeltaOnce(t *testing.T) {
	for _, tp := range []*topo.Topology{topo.Geant(), topo.ATT()} {
		t.Run(tp.Name, func(t *testing.T) {
			cfg, reqs := nrStreamWorkload(t, tp, 24000)
			engines, shared, err := newShardedEngines(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const epochLen = 2048
			per := make([][]Request, len(engines))
			var total, fromRemote int64
			for start := 0; start < len(reqs); start += epochLen {
				partitionEpoch(per, reqs[start:min(start+epochLen, len(reqs))])
				runEpoch(engines, per, 2)
				checkOwnIndexInRange(t, engines)
				var local int64
				for _, e := range engines {
					local += int64(len(e.sh.riLog))
				}
				// Remote inserts extend the owners' logs; run that phase first so
				// the expected count is the full Σ|riLog| the barrier will see.
				applyRemoteOps(engines)
				var logged int64
				for _, e := range engines {
					logged += int64(len(e.sh.riLog))
				}
				before := shared.riApplied
				exchange(engines, shared)
				if got := shared.riApplied - before; got != logged {
					t.Fatalf("epoch at %d: barrier performed %d replica-index mutations for %d logged deltas (P = %d)",
						start, got, logged, len(engines))
				}
				checkOwnIndexInRange(t, engines)
				checkSharedEqualsOwn(t, engines, shared)
				total += logged
				fromRemote += logged - local
			}
			if total == 0 || fromRemote == 0 {
				t.Fatalf("workload too tame to gate anything: %d deltas, %d from remote inserts", total, fromRemote)
			}
		})
	}
}

// mirrorModel is the replica-index design this package used to have, kept
// as a deliberately naive test-only reference: every shard holds a private
// full copy of the index, sees its own changes instantly, and replays every
// other shard's delta log at the barrier.
type mirrorModel struct {
	net     *topo.Network
	mirrors []map[int32]map[topo.NodeID]bool // per shard: obj -> node set
	logs    [][]riOp
}

func newMirrorModel(net *topo.Network) *mirrorModel {
	m := &mirrorModel{net: net, logs: make([][]riOp, net.PoPs())}
	for p := 0; p < net.PoPs(); p++ {
		m.mirrors = append(m.mirrors, map[int32]map[topo.NodeID]bool{})
	}
	return m
}

func (m *mirrorModel) apply(shard int, op riOp) {
	set := m.mirrors[shard][op.obj]
	if set == nil {
		set = map[topo.NodeID]bool{}
		m.mirrors[shard][op.obj] = set
	}
	if op.add {
		set[op.node] = true
	} else {
		delete(set, op.node)
	}
}

func (m *mirrorModel) mutate(shard int, op riOp) {
	m.apply(shard, op)
	m.logs[shard] = append(m.logs[shard], op)
}

func (m *mirrorModel) barrier() {
	for src, log := range m.logs {
		for dst := range m.mirrors {
			if dst == src {
				continue
			}
			for _, op := range log {
				m.apply(dst, op)
			}
		}
		m.logs[src] = nil
	}
}

// nearest is the obviously-correct selection: every admissible replica in
// the asking shard's mirror, ordered by (distance, NodeID).
func (m *mirrorModel) nearest(shard int, leafLocal, obj int32, ok func(topo.NodeID) bool) (topo.NodeID, int, bool) {
	var nodes []topo.NodeID
	for n := range m.mirrors[shard][obj] {
		nodes = append(nodes, n)
	}
	return scanNearest(m.net, shard, leafLocal, nodes, ok)
}

// scanNearest is the reference every lookup is compared against: it computes
// the distance to every admissible node with Network.Dist, sorts by
// (distance, NodeID) and takes the head. It knows nothing about PoP groups,
// breadth-first numbering, or the order of its input.
func scanNearest(net *topo.Network, pop int, leafLocal int32, nodes []topo.NodeID, ok func(topo.NodeID) bool) (topo.NodeID, int, bool) {
	type cand struct {
		d int
		n topo.NodeID
	}
	var cands []cand
	for _, n := range nodes {
		if ok(n) {
			cands = append(cands, cand{net.Dist(net.Node(pop, leafLocal), n), n})
		}
	}
	if len(cands) == 0 {
		return 0, 0, false
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if a.d != b.d {
			return a.d - b.d
		}
		return int(a.n) - int(b.n)
	})
	return cands[0].n, cands[0].d, true
}

// diffHarness drives the real sharded engines and the mirror reference with
// the same operations.
type diffHarness struct {
	t       *testing.T
	net     *topo.Network
	engines []*Engine
	shared  *shardShared
	ref     *mirrorModel
}

func newDiffHarness(t *testing.T, net *topo.Network, objects int) *diffHarness {
	t.Helper()
	cfg := ICNNR.Apply(Config{
		Network: net, Objects: objects, Origins: make([]int32, objects),
		BudgetFraction: 0.5, BudgetPolicy: BudgetUniform,
		Capacity: 10, CapacityWindow: 1 << 30,
		FailurePlan: &FailurePlan{Seed: 1},
	})
	engines, shared, err := newShardedEngines(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &diffHarness{t: t, net: net, engines: engines, shared: shared, ref: newMirrorModel(net)}
}

func (h *diffHarness) mutate(op riOp) {
	pop, _ := h.net.Split(op.node)
	if op.add {
		h.engines[pop].riAdd(op.obj, op.node)
	} else {
		h.engines[pop].riRemove(op.obj, op.node)
	}
	h.ref.mutate(pop, op)
}

func (h *diffHarness) barrier() {
	exchange(h.engines, h.shared)
	h.ref.barrier()
}

// setFilter blacks a node out (failure plan) or exhausts its capacity in
// every shard, the way the epoch-start bookkeeping keeps them in step.
func (h *diffHarness) setFilter(n topo.NodeID, failed, overloaded bool) {
	for _, e := range h.engines {
		e.failed[n] = failed
		e.served[n] = 0
		if overloaded {
			e.served[n] = e.cfg.Capacity
		}
	}
}

// shardNearest is a shard's whole nearest-replica lookup, composed exactly
// as serveNearestReplica composes it.
func shardNearest(e *Engine, pop int, leafLocal, obj int32) (topo.NodeID, int, bool) {
	node, dist, found := e.replicas.nearest(e.net, pop, leafLocal, obj, e.nearestOK, false)
	return e.nearestAcrossShards(pop, leafLocal, obj, node, dist, found)
}

func (h *diffHarness) check(shard int, leaf, obj int32, when string) {
	h.t.Helper()
	e := h.engines[shard]
	leafLocal := h.net.LeafStart() + leaf
	gotN, gotD, gotOK := shardNearest(e, shard, leafLocal, obj)
	wantN, wantD, wantOK := h.ref.nearest(shard, leafLocal, obj, e.nearestOK)
	if gotOK != wantOK || (wantOK && (gotN != wantN || gotD != wantD)) {
		h.t.Fatalf("%s: shard %d leaf %d object %d: nearest = (%d, %d, %v), full-mirror reference says (%d, %d, %v)",
			when, shard, leaf, obj, gotN, gotD, gotOK, wantN, wantD, wantOK)
	}
}

// TestNearestMatchesFullMirrorScenarios walks the cases where a shared
// epoch-start index plus an own-PoP live index could plausibly diverge from
// a private full mirror, one at a time.
func TestNearestMatchesFullMirrorScenarios(t *testing.T) {
	net := topo.NewNetwork(linePoPs(5), 2, 2)
	h := newDiffHarness(t, net, 4)
	everyone := func(obj int32, when string) {
		t.Helper()
		for p := 0; p < net.PoPs(); p++ {
			for leaf := int32(0); leaf < int32(net.LeavesPerTree()); leaf++ {
				h.check(p, leaf, obj, when)
			}
		}
	}

	// Equal-distance replicas in different PoPs: the roots of PoPs 1 and 3
	// are equally far from every leaf of PoP 2; NodeID breaks the tie even
	// though the higher id was added (and is scanned) in a different index.
	h.mutate(riOp{node: net.Node(3, 0), obj: 0, add: true})
	h.mutate(riOp{node: net.Node(1, 0), obj: 0, add: true})
	everyone(0, "tie, before the barrier")
	h.barrier()
	everyone(0, "tie, after the barrier")
	if n, _, ok := shardNearest(h.engines[2], 2, net.LeafStart(), 0); !ok || n != net.Node(1, 0) {
		t.Fatalf("tie between PoP 1 and PoP 3 roots resolved to node %d (found %v), want the lower id %d", n, ok, net.Node(1, 0))
	}
	// A replica that exists only in PoP 2's live index now competes with the
	// two in the shared index; the other shards must not see it yet.
	own := net.Node(2, net.LeafStart()+1)
	h.mutate(riOp{node: own, obj: 0, add: true})
	everyone(0, "own-PoP replica added mid-epoch")

	// The filter: an overloaded or failed nearest replica is passed over.
	h.setFilter(net.Node(1, 0), false, true)
	everyone(0, "nearest replica over capacity")
	h.setFilter(net.Node(1, 0), true, false)
	h.setFilter(own, true, false)
	everyone(0, "nearest replicas failed")
	h.setFilter(net.Node(1, 0), false, false)
	h.setFilter(own, false, false)

	// An object whose only replica is in the asking shard's own PoP: visible
	// to the owner at once and to nobody else until the barrier — and, once
	// evicted, gone for the owner at once although the shared index still
	// lists it (the own-range skip) and still there for the others.
	only := net.Node(4, net.LeafStart())
	h.mutate(riOp{node: only, obj: 1, add: true})
	everyone(1, "sole replica, before the barrier")
	if _, _, ok := shardNearest(h.engines[4], 4, net.LeafStart(), 1); !ok {
		t.Fatal("owner does not see its own insert immediately")
	}
	if _, _, ok := shardNearest(h.engines[0], 0, net.LeafStart(), 1); ok {
		t.Fatal("another shard sees an insert before the barrier")
	}
	h.barrier()
	everyone(1, "sole replica, after the barrier")
	h.mutate(riOp{node: only, obj: 1})
	everyone(1, "sole replica evicted mid-epoch")
	if _, _, ok := shardNearest(h.engines[4], 4, net.LeafStart(), 1); ok {
		t.Fatal("owner still finds a replica it evicted this epoch (stale shared entry not skipped)")
	}
	if _, _, ok := shardNearest(h.engines[0], 0, net.LeafStart(), 1); !ok {
		t.Fatal("another shard lost a replica before the barrier announced its eviction")
	}
	h.barrier()
	everyone(1, "sole replica evicted, after the barrier")
}

// TestNearestMatchesFullMirrorRandom is the differential test proper: seeded
// random add/remove/filter/barrier sequences on a topology with plenty of
// equal-distance pairs, comparing every lookup against the full-mirror
// reference.
func TestNearestMatchesFullMirrorRandom(t *testing.T) {
	for _, tc := range []struct {
		name         string
		tp           *topo.Topology
		arity, depth int
	}{{"line", linePoPs(6), 2, 2}, {"Abilene", topo.Abilene(), 2, 2}, {"Geant", topo.Geant(), 3, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			net := topo.NewNetwork(tc.tp, tc.arity, tc.depth)
			const objects = 6
			for seed := int64(1); seed <= 8; seed++ {
				h := newDiffHarness(t, net, objects)
				r := rand.New(rand.NewSource(seed))
				node := func() topo.NodeID { return topo.NodeID(r.Intn(net.NodeCount())) }
				lookups := 0
				for step := 0; step < 4000; step++ {
					switch k := r.Intn(100); {
					case k < 35:
						h.mutate(riOp{node: node(), obj: int32(r.Intn(objects)), add: true})
					case k < 55:
						h.mutate(riOp{node: node(), obj: int32(r.Intn(objects))})
					case k < 60:
						h.setFilter(node(), r.Intn(3) == 0, r.Intn(3) == 0)
					case k < 63:
						h.barrier()
						checkOwnIndexInRange(t, h.engines)
						checkSharedEqualsOwn(t, h.engines, h.shared)
					default:
						h.check(r.Intn(net.PoPs()), int32(r.Intn(net.LeavesPerTree())), int32(r.Intn(objects)), "random sequence")
						lookups++
					}
				}
				if lookups < 1000 {
					t.Fatalf("seed %d: only %d lookups compared", seed, lookups)
				}
			}
		})
	}
}

// TestCapacityCountersAgreeAfterEveryBarrier pins what the barrier's
// capacity reconciliation guarantees, now that it only runs in epochs where
// a counter moved: after every exchange each shard's copy of every node's
// serve counter equals the owner's. The limit is tight enough that caches
// exhaust their window early, so many epochs serve nothing from a cache.
func TestCapacityCountersAgreeAfterEveryBarrier(t *testing.T) {
	for _, d := range []Design{ICNSP, ICNNR} {
		t.Run(d.Name, func(t *testing.T) {
			cfg, reqs := sweepWorkload(t)
			cfg.Capacity, cfg.CapacityWindow = 2, 8192
			engines, shared, err := newShardedEngines(d.Apply(cfg))
			if err != nil {
				t.Fatal(err)
			}
			const epochLen = 256
			per := make([][]Request, len(engines))
			reconciled, skipped := 0, 0
			for start := 0; start < len(reqs); start += epochLen {
				if start%cfg.CapacityWindow == 0 {
					for _, e := range engines {
						clear(e.served)
					}
				}
				partitionEpoch(per, reqs[start:min(start+epochLen, len(reqs))])
				runEpoch(engines, per, 2)
				applyRemoteOps(engines)
				moved := false
				for _, e := range engines {
					moved = moved || e.sh.servedDirty
				}
				if moved {
					reconciled++
				} else {
					skipped++
				}
				exchange(engines, shared)
				for _, n := range shared.cacheNodes {
					want := ownerOf(engines, topo.NodeID(n)).served[n]
					for p, e := range engines {
						if e.served[n] != want {
							t.Fatalf("epoch at %d: shard %d counts %d serves at node %d, its owner %d", start, p, e.served[n], n, want)
						}
					}
				}
			}
			if reconciled == 0 || skipped == 0 {
				t.Fatalf("%d barriers reconciled, %d skipped: the workload must exercise both", reconciled, skipped)
			}
		})
	}
}

// nearestNets are the networks the direct lookup tests run on: a line, where
// PoP pairs at equal distance are everywhere; a backbone with wide shallow
// trees; and one with deep trees (31 routers per PoP), whose groups are long
// enough to be worth stepping over.
var nearestNets = sync.OnceValue(func() []*topo.Network {
	return []*topo.Network{
		topo.NewNetwork(linePoPs(6), 2, 2),
		topo.NewNetwork(topo.Abilene(), 3, 2),
		topo.NewNetwork(topo.Geant(), 2, 4),
	}
})

// nearestWorkBound is how often a lookup over row may consult its filter
// when nothing is inadmissible: once per remote PoP group, plus every
// replica in the requester's own group.
func nearestWorkBound(net *topo.Network, row []topo.NodeID, pop int, skipOwn bool) int {
	bound, last := 0, -1
	for _, n := range row {
		q, _ := net.Split(n)
		if q == pop && !skipOwn {
			bound++
		} else if q != pop && q != last {
			bound++
		}
		last = q
	}
	return bound
}

// checkNearestCase decodes one lookup from bytes — network, requester leaf,
// mode bits (skip the own PoP / everything admissible / nil filter), then
// (node, verdict) triples — and compares replicaIndex.nearest against
// scanNearest over the same set. With everything admissible it also gates
// the work: the filter is consulted at most nearestWorkBound times.
func checkNearestCase(t testing.TB, data []byte) {
	t.Helper()
	if len(data) < 4 {
		return
	}
	nets := nearestNets()
	net := nets[int(data[0])%len(nets)]
	pop := int(data[1]) % net.PoPs()
	leafLocal := net.LeafStart() + int32(int(data[2])%net.LeavesPerTree())
	skipOwn, allOK, nilFilter := data[3]&1 != 0, data[3]&2 != 0, data[3]&4 != 0
	ri := newReplicaIndex(1)
	rejected := map[topo.NodeID]bool{}
	for d := data[4:]; len(d) >= 3; d = d[3:] {
		n := topo.NodeID((int(d[0])<<8 | int(d[1])) % net.NodeCount())
		ri.add(0, n)
		if !allOK && d[2]%4 == 0 {
			rejected[n] = true
		}
	}
	calls := 0
	ok := func(n topo.NodeID) bool { calls++; return !rejected[n] }
	if allOK && nilFilter {
		ok = nil
	}
	gotN, gotD, gotOK := ri.nearest(net, pop, leafLocal, 0, ok, skipOwn)
	wantN, wantD, wantOK := scanNearest(net, pop, leafLocal, ri.perObj[0], func(n topo.NodeID) bool {
		q, _ := net.Split(n)
		return !rejected[n] && !(skipOwn && q == pop)
	})
	if gotOK != wantOK || (wantOK && (gotN != wantN || gotD != wantD)) {
		t.Fatalf("%s PoP %d leaf %d skipOwn=%v over %v minus %v: nearest = (%d, %d, %v), scanning everything says (%d, %d, %v)",
			net.Topo.Name, pop, leafLocal, skipOwn, ri.perObj[0], rejected, gotN, gotD, gotOK, wantN, wantD, wantOK)
	}
	if bound := nearestWorkBound(net, ri.perObj[0], pop, skipOwn); allOK && calls > bound {
		t.Fatalf("%s PoP %d skipOwn=%v: filter consulted %d times over %d replicas, want at most %d (one per remote PoP group + the own group)",
			net.Topo.Name, pop, skipOwn, calls, len(ri.perObj[0]), bound)
	}
}

// nearestCases returns n seeded random inputs for checkNearestCase: replica
// sets from empty to a couple of hundred copies, so both lone replicas (own
// group empty, single-entry groups) and dense clustered sets occur.
func nearestCases(n int) [][]byte {
	r := rand.New(rand.NewSource(14))
	cases := make([][]byte, n)
	for i := range cases {
		replicas := r.Intn(10)
		if i%3 == 0 {
			replicas = r.Intn(200)
		}
		cases[i] = make([]byte, 4+3*replicas)
		r.Read(cases[i])
	}
	return cases
}

// TestNearestMatchesScanRandom is the property test for the grouped lookup:
// on random replica sets, requesters, filters and modes over three
// topologies and tree shapes it returns exactly what scanning everything
// returns.
func TestNearestMatchesScanRandom(t *testing.T) {
	for _, data := range nearestCases(6000) {
		checkNearestCase(t, data)
	}
}

// FuzzReplicaNearest explores the same property from the property test's own
// cases.
func FuzzReplicaNearest(f *testing.F) {
	for _, data := range nearestCases(48) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkNearestCase(t, data) })
}

// TestNearestConsultsFilterOncePerRemoteGroup is the deterministic work gate
// for the lookup, on the shape real runs have — hundreds of replicas
// clustered in tens of PoPs: 20 of Geant's 22 PoPs hold the object at every
// router (620 replicas). A lookup that scanned the set would consult the
// filter 620 times; the grouped one may ask once per remote PoP, plus once
// per replica of the requester's own PoP. No timing involved.
func TestNearestConsultsFilterOncePerRemoteGroup(t *testing.T) {
	net := nearestNets()[2]
	const holders = 20
	ri := newReplicaIndex(1)
	for p := 0; p < holders; p++ {
		for local := int32(0); local < int32(net.TreeSize()); local++ {
			ri.add(0, net.Node(p, local))
		}
	}
	for pop := 0; pop < net.PoPs(); pop++ {
		for _, skipOwn := range []bool{false, true} {
			calls := 0
			_, _, found := ri.nearest(net, pop, net.LeafStart(), 0, func(topo.NodeID) bool { calls++; return true }, skipOwn)
			bound := nearestWorkBound(net, ri.perObj[0], pop, skipOwn)
			if !found || calls > bound || bound > holders+net.TreeSize() {
				t.Fatalf("PoP %d skipOwn=%v: found=%v, filter consulted %d times over %d replicas, bound %d",
					pop, skipOwn, found, calls, len(ri.perObj[0]), bound)
			}
		}
	}
}
