package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"idicn/internal/topo"
	"idicn/internal/trace"
)

// DefaultEpochLen is the default epoch length (in requests) for sharded
// streaming runs: long enough to amortize barrier cost, short enough that
// cross-shard state (replica index, backbone root contents) stays fresh.
const DefaultEpochLen = 8192

// StreamOptions configures a sharded streaming run (RunStream).
type StreamOptions struct {
	// Workers is the number of goroutines executing shards; <= 0 means
	// DefaultWorkers(). Results are bit-identical for every worker count —
	// parallelism changes wall-clock time only.
	Workers int
	// EpochLen is the number of requests per epoch between cross-shard
	// exchanges; <= 0 means DefaultEpochLen. Like Workers it affects
	// fidelity of cross-shard state, so unlike Workers it IS part of the
	// result's identity: compare runs only at equal EpochLen.
	EpochLen int
	// Observer receives events from every shard. Since shards run
	// concurrently, a non-nil Observer must be safe for concurrent use.
	Observer Observer
}

// remoteOp is one buffered effect on a node owned by another shard: a serve
// touch (recency + capacity charge) or a response-path insert. The owner
// applies its ops at the epoch barrier.
type remoteOp struct {
	node   topo.NodeID
	obj    int32
	insert bool
}

// riOp is one replica-index delta produced by a shard during an epoch,
// applied once to the shared epoch-start index at the barrier.
type riOp struct {
	node topo.NodeID
	obj  int32
	add  bool
}

// shardShared is the cross-shard state of one sharded run. During an epoch
// it is strictly read-only to the worker goroutines; the barrier (single
// goroutine) is the only writer.
type shardShared struct {
	// hasCache marks every node the placement provisions a cache at,
	// regardless of owner: shards use it to recognize remote caching nodes.
	hasCache []bool
	// cacheNodes is the global provisioned-cache list, shared by all shards
	// so failure-plan shuffles draw identical node sets everywhere.
	cacheNodes []int32
	// rootLive[pop] is a bitset of the objects currently cached at pop's
	// root (maintained by the owner); rootFrozen is its epoch-start copy,
	// which remote shards consult for shortest-path backbone hits. Rows are
	// nil for PoPs whose root has no cache. nil entirely when the placement
	// puts no cache at any root (e.g. edge-only).
	rootLive   [][]uint64
	rootFrozen [][]uint64
	// replicas is the one run-wide replica index, as of the last barrier
	// (nil unless routing is nearest-replica). Shards read every PoP but
	// their own from it; their own PoP's current state is Engine.replicas.
	replicas *replicaIndex
	// riApplied counts replica-index mutations performed at barriers. Each
	// delta is applied exactly once, so it grows by Σ|riLog| per epoch — not
	// P times that; tests gate on it.
	riApplied int64
}

// engineShard is the per-shard half of the sharing state: which PoP this
// shard owns, plus its outgoing effect buffers.
type engineShard struct {
	shared *shardShared
	pop    int
	ops    []remoteOp // effects on other shards' nodes, applied at the barrier
	riLog  []riOp     // own-PoP replica-index deltas, merged into shared.replicas at the barrier
	// servedDirty records that a capacity counter moved since the last
	// barrier (a serve here, or a remote touch applied to a node here).
	servedDirty bool
}

// pathHit reports whether the shortest-path walk can serve from node, and
// performs the hit's cache touch. Own-shard nodes resolve exactly like the
// sequential engine; nodes owned by other shards serve from the epoch-start
// frozen image of their PoP-root contents, with the recency touch buffered
// for the owner.
//
//icn:noalloc
func (e *Engine) pathHit(node topo.NodeID, obj int32) bool {
	if e.caches[node] != nil {
		return e.admissible(node) && e.caches[node].Lookup(obj)
	}
	return e.sh != nil && e.remoteHit(node, obj)
}

// remoteHit consults the frozen root bitset of another shard's PoP. Only
// PoP roots are reachable cross-shard on a shortest path (the core walks
// root to root), so deeper remote nodes never hit here.
//
//icn:noalloc
func (e *Engine) remoteHit(node topo.NodeID, obj int32) bool {
	sh := e.sh
	if sh.shared.rootFrozen == nil {
		return false
	}
	pop, local := e.net.Split(node)
	if local != 0 {
		return false
	}
	row := sh.shared.rootFrozen[pop]
	if row == nil || row[uint32(obj)>>6]&(1<<(uint32(obj)&63)) == 0 {
		return false
	}
	if e.failed != nil && e.failed[node] {
		return false
	}
	if e.served != nil && e.served[node] >= e.cfg.Capacity {
		return false
	}
	sh.ops = append(sh.ops, remoteOp{node: node, obj: obj})
	return true
}

// admissibleAny extends admissible to nodes owned by other shards, which
// carry no local store: existence comes from the shared placement map while
// failure and capacity state are replicated per shard.
//
//icn:noalloc
func (e *Engine) admissibleAny(n topo.NodeID) bool {
	if e.caches[n] != nil {
		return e.admissible(n)
	}
	if e.sh == nil || !e.sh.shared.hasCache[n] {
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

// cacheAt reports whether the placement has a cache at n, own or remote.
//
//icn:noalloc
func (e *Engine) cacheAt(n topo.NodeID) bool {
	return e.caches[n] != nil || (e.sh != nil && e.sh.shared.hasCache[n])
}

// nearestAcrossShards completes a shard's nearest-replica lookup. (node,
// dist, found) is the answer from the shard's live own-PoP index (its own
// changes, instantly); this merges in a scan of the shared epoch-start
// index (everyone else's replicas as of the last barrier — its image of the
// shard's own PoP is stale, and is skipped as one group). Together that is
// exactly what a private full mirror fed by barrier broadcasts would hold,
// without the P copies. The merge applies the (distance, NodeID) order
// explicitly, so which index is consulted first cannot change a result.
//
//icn:noalloc
func (e *Engine) nearestAcrossShards(pop int, leafLocal, obj int32, node topo.NodeID, dist int, found bool) (topo.NodeID, int, bool) {
	n, d, ok := e.sh.shared.replicas.nearest(e.net, pop, leafLocal, obj, e.nearestOK, true)
	if ok && (!found || d < dist || (d == dist && n < node)) {
		return n, d, true
	}
	return node, dist, found
}

// riAdd records obj appearing at node: immediately in this engine's index
// (sharded: the live index of its own PoP), and in the delta log the barrier
// merges into the shared index the other shards read.
//
//icn:noalloc
func (e *Engine) riAdd(obj int32, node topo.NodeID) {
	e.replicas.add(obj, node)
	if e.sh != nil {
		e.sh.riLog = append(e.sh.riLog, riOp{node: node, obj: obj, add: true})
	}
}

// riRemove is riAdd's eviction counterpart.
//
//icn:noalloc
func (e *Engine) riRemove(obj int32, node topo.NodeID) {
	e.replicas.remove(obj, node)
	if e.sh != nil {
		e.sh.riLog = append(e.sh.riLog, riOp{node: node, obj: obj})
	}
}

// remoteTouch buffers a serve touch on a node owned by another shard.
//
//icn:noalloc
func (e *Engine) remoteTouch(node topo.NodeID, obj int32) {
	e.sh.ops = append(e.sh.ops, remoteOp{node: node, obj: obj})
}

// remoteInsert buffers a response-path insert at a caching node owned by
// another shard.
//
//icn:noalloc
func (e *Engine) remoteInsert(node topo.NodeID, obj int32) {
	sh := e.sh
	if !sh.shared.hasCache[node] {
		return
	}
	if e.failed != nil && e.failed[node] {
		return
	}
	sh.ops = append(sh.ops, remoteOp{node: node, obj: obj, insert: true})
}

// setRootBit marks obj live at node's PoP root bitset (no-op off PoP roots
// and in unsharded runs).
//
//icn:noalloc
func (e *Engine) setRootBit(node topo.NodeID, obj int32) {
	if e.sh == nil || e.sh.shared.rootLive == nil {
		return
	}
	pop, local := e.net.Split(node)
	if local != 0 {
		return
	}
	if row := e.sh.shared.rootLive[pop]; row != nil {
		row[uint32(obj)>>6] |= 1 << (uint32(obj) & 63)
	}
}

// clearRootBit is setRootBit's eviction counterpart.
//
//icn:noalloc
func (e *Engine) clearRootBit(pop int, obj int32) {
	if e.sh.shared.rootLive == nil {
		return
	}
	if row := e.sh.shared.rootLive[pop]; row != nil {
		row[uint32(obj)>>6] &^= 1 << (uint32(obj) & 63)
	}
}

// epochBatch is one epoch's worth of requests, partitioned by arrival PoP.
// Batches are recycled through a free list so a 10⁹-request run allocates a
// constant number of them.
type epochBatch struct {
	start, end int64 // request indices [start, end)
	per        [][]Request
	err        error
	eof        bool
}

// RunStream executes one simulation over the request stream, sharded by
// arrival PoP and epoch-synchronized so the Result is bit-identical for
// every opt.Workers value. Compared to the sequential Engine.Run, effects
// that cross a shard boundary — replica-index updates, backbone-root hits,
// response-path inserts and capacity charges on remote nodes — land at the
// next epoch barrier instead of instantly; with a single PoP (one shard)
// the two are exactly equivalent. Requests are pulled from src epoch by
// epoch, so memory use is bounded by topology size plus one epoch, never by
// stream length.
func RunStream(cfg Config, src trace.Stream, opt StreamOptions) (Result, error) {
	if cfg.Network == nil {
		return Result{}, fmt.Errorf("sim: nil network")
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	epochLen := int64(opt.EpochLen)
	if epochLen <= 0 {
		epochLen = DefaultEpochLen
	}
	cfg.Observer = opt.Observer

	net := cfg.Network
	pops := net.PoPs()
	engines, shared, err := newShardedEngines(cfg)
	if err != nil {
		return Result{}, err
	}

	warmup := int64(engines[0].cfg.WarmupRequests)
	plan := engines[0].cfg.FailurePlan
	capWindow := int64(engines[0].cfg.CapacityWindow)

	var snaps []*snapshot
	var total int64

	// The reader goroutine fills epoch batches ahead of the simulation;
	// the free list bounds it to a handful of epochs in flight.
	free := make(chan *epochBatch, 3)
	for i := 0; i < cap(free); i++ {
		per := make([][]Request, pops)
		free <- &epochBatch{per: per}
	}
	ready := make(chan *epochBatch, cap(free))
	// The simulation side consumes batches up to the reader's last one (end
	// of stream or an error), returning each to the free list, so the reader
	// never blocks for good; wg bounds its lifetime to the run.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(ready)
		var pos int64
		epIdx := 0
		var q Request
		for {
			b := <-free
			b.start, b.err, b.eof = pos, nil, false
			for p := range b.per {
				b.per[p] = b.per[p][:0]
			}
			end := nextEpochCut(pos, epochLen, warmup, capWindow, plan, &epIdx)
			for pos < end {
				if !src.Next(&q) {
					if err := src.Err(); err != nil {
						b.err = err
					}
					b.eof = true
					break
				}
				if q.PoP < 0 || int(q.PoP) >= pops {
					b.err = fmt.Errorf("sim: request %d PoP %d out of range [0, %d)", pos, q.PoP, pops)
					b.eof = true
					break
				}
				if q.Leaf < 0 || int(q.Leaf) >= net.LeavesPerTree() {
					b.err = fmt.Errorf("sim: request %d leaf %d out of range [0, %d)", pos, q.Leaf, net.LeavesPerTree())
					b.eof = true
					break
				}
				if q.Object < 0 || int(q.Object) >= cfg.Objects {
					b.err = fmt.Errorf("sim: request %d object %d out of range [0, %d)", pos, q.Object, cfg.Objects)
					b.eof = true
					break
				}
				b.per[q.PoP] = append(b.per[q.PoP], q)
				pos++
			}
			b.end = pos
			ready <- b
			if b.eof {
				return
			}
		}
	}()

	var runErr error
	for b := range ready {
		if b.err != nil {
			runErr = b.err
			break
		}
		if b.end > b.start {
			// Epoch-start bookkeeping, identical in every shard. Cuts are
			// aligned so each boundary falls exactly on an epoch start.
			if capWindow > 0 && b.start%capWindow == 0 {
				for _, e := range engines {
					clear(e.served)
				}
			}
			if plan != nil {
				for _, e := range engines {
					e.advanceFailures(b.start)
				}
			}
			if warmup > 0 && b.start == warmup {
				snaps = snapshotAll(engines)
			}
			runEpoch(engines, b.per, workers)
			exchange(engines, shared)
			total = b.end
		}
		eof := b.eof
		select {
		case free <- b:
		default:
		}
		if eof {
			break
		}
	}
	for range ready {
		// Drain so the reader goroutine exits.
	}
	wg.Wait()
	if runErr != nil {
		return Result{}, runErr
	}
	effWarmup := warmup
	if effWarmup > total {
		effWarmup = total
	}
	if warmup > 0 && snaps == nil {
		// The whole stream was warmup (or shorter than it).
		snaps = snapshotAll(engines)
	}
	return mergeStreamResult(engines, snaps, total-effWarmup), nil
}

// newShardedEngines builds one Engine per PoP, each owning its own PoP's
// caches, wired to a common shardShared. The global placement map and
// cache-node list come from a dry provisioning pass; sharing cacheNodes
// across engines keeps the failure plan's seeded shuffles identical in
// every shard.
func newShardedEngines(cfg Config) ([]*Engine, *shardShared, error) {
	net := cfg.Network
	pops := net.PoPs()
	shared := &shardShared{hasCache: make([]bool, net.NodeCount())}
	engines := make([]*Engine, pops)
	for p := 0; p < pops; p++ {
		e, err := newEngine(cfg, &engineShard{shared: shared, pop: p})
		if err != nil {
			return nil, nil, err
		}
		engines[p] = e
	}
	engines[0].forEachProvision(func(pop int, node topo.NodeID, _ int, _, _ float64) {
		shared.hasCache[node] = true
		shared.cacheNodes = append(shared.cacheNodes, int32(node))
	})
	if shared.cacheNodes == nil {
		shared.cacheNodes = []int32{}
	}
	if engines[0].replicas != nil {
		shared.replicas = newReplicaIndex(cfg.Objects)
	}
	for _, e := range engines {
		e.cacheNodes = shared.cacheNodes
	}
	rootBits := false
	for p := 0; p < pops; p++ {
		if shared.hasCache[net.Node(p, 0)] {
			rootBits = true
			break
		}
	}
	if rootBits {
		words := (cfg.Objects + 63) / 64
		shared.rootLive = make([][]uint64, pops)
		shared.rootFrozen = make([][]uint64, pops)
		for p := 0; p < pops; p++ {
			if shared.hasCache[net.Node(p, 0)] {
				shared.rootLive[p] = make([]uint64, words)
				shared.rootFrozen[p] = make([]uint64, words)
			}
		}
	}
	return engines, shared, nil
}

// nextEpochCut returns the end of the epoch starting at pos: the next
// multiple of epochLen, pulled in so no warmup boundary, capacity-window
// edge, or failure-epoch start falls inside it. Every global state change
// then lands exactly on a barrier, which is what makes per-epoch
// bookkeeping equivalent to the sequential engine's per-request checks.
func nextEpochCut(pos, epochLen, warmup, capWindow int64, plan *FailurePlan, epIdx *int) int64 {
	end := (pos/epochLen + 1) * epochLen
	if warmup > pos && warmup < end {
		end = warmup
	}
	if capWindow > 0 {
		if w := (pos/capWindow + 1) * capWindow; w < end {
			end = w
		}
	}
	if plan != nil {
		for *epIdx < len(plan.Epochs) && plan.Epochs[*epIdx].Start <= pos {
			*epIdx++
		}
		if *epIdx < len(plan.Epochs) {
			if s := plan.Epochs[*epIdx].Start; s < end {
				end = s
			}
		}
	}
	return end
}

// runEpoch executes one epoch: each shard serves its own PoP's requests.
// Shards touch disjoint mutable state (their own caches, counters, and
// effect buffers) and read only frozen shared state, so any assignment of
// shards to workers yields the same per-shard outcome.
func runEpoch(engines []*Engine, per [][]Request, workers int) {
	if workers > len(engines) {
		workers = len(engines)
	}
	if workers <= 1 {
		for p, e := range engines {
			for _, q := range per[p] {
				e.serveRequest(q)
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				p := int(next.Add(1)) - 1
				if p >= len(engines) {
					return
				}
				e := engines[p]
				for _, q := range per[p] {
					e.serveRequest(q)
				}
			}
		}()
	}
	wg.Wait()
}

// exchange is the epoch barrier: a single goroutine applies every shard's
// buffered cross-shard effects in fixed shard order, so the merged state —
// and therefore the whole run — is independent of worker scheduling.
func exchange(engines []*Engine, shared *shardShared) {
	applyRemoteOps(engines)
	// Merge every shard's own-PoP replica deltas into the shared index, once
	// each. Afterwards the shared index restricted to a PoP equals that PoP's
	// live index.
	if shared.replicas != nil {
		for _, src := range engines {
			for _, op := range src.sh.riLog {
				if op.add {
					shared.replicas.add(op.obj, op.node)
				} else {
					shared.replicas.remove(op.obj, op.node)
				}
				shared.riApplied++
			}
			src.sh.riLog = src.sh.riLog[:0]
		}
	}
	// Freeze the root bitsets for the next epoch's remote hits.
	for p, row := range shared.rootLive {
		if row != nil {
			copy(shared.rootFrozen[p], row)
		}
	}
	// Reconcile capacity counters — the owner's count (its own serves plus
	// every remote touch) is canonical. Counters only move when something is
	// served from a cache, so an epoch without such serves skips the pass.
	dirty := false
	for _, e := range engines {
		dirty = dirty || e.sh.servedDirty
		e.sh.servedDirty = false
	}
	if dirty {
		for _, n := range shared.cacheNodes {
			v := ownerOf(engines, topo.NodeID(n)).served[n]
			for _, e := range engines {
				e.served[n] = v
			}
		}
	}
}

// ownerOf returns the shard engine owning node: shards are one per PoP, in
// PoP order.
func ownerOf(engines []*Engine, node topo.NodeID) *Engine {
	pop, _ := engines[0].net.Split(node)
	return engines[pop]
}

// applyRemoteOps is the barrier's first phase: buffered touches and inserts
// on other shards' nodes, applied by the owning engine. Inserts route
// through Engine.insert, so they feed the owner's live replica index, riLog,
// and root bitset exactly like local inserts.
func applyRemoteOps(engines []*Engine) {
	for _, src := range engines {
		sh := src.sh
		for _, op := range sh.ops {
			owner := ownerOf(engines, op.node)
			if op.insert {
				if owner.caches[op.node] != nil {
					owner.insert(op.node, op.obj)
				}
				continue
			}
			if c := owner.caches[op.node]; c != nil {
				c.Lookup(op.obj)
			}
			if owner.served != nil {
				owner.served[op.node]++
				owner.sh.servedDirty = true
			}
		}
		sh.ops = sh.ops[:0]
	}
}

func snapshotAll(engines []*Engine) []*snapshot {
	snaps := make([]*snapshot, len(engines))
	for i, e := range engines {
		snaps[i] = e.snapshot()
	}
	return snaps
}

// mergeStreamResult folds per-shard metrics into one Result, always in
// shard index order so floating-point sums are reproducible. Integer
// metrics merge by plain summation; per-link and per-origin maxima are
// taken over the summed deltas, matching the sequential result()
// definition.
func mergeStreamResult(engines []*Engine, snaps []*snapshot, n int64) Result {
	zero := &snapshot{}
	snapOf := func(i int) *snapshot {
		if snaps == nil {
			return zero
		}
		return snaps[i]
	}
	statDelta := func(cur, old int64) int64 { return cur - old }

	first := engines[0]
	res := Result{
		Requests:      n,
		PoPLatency:    make([]float64, len(first.popLatency)),
		PoPRequests:   make([]int64, len(first.popRequests)),
		ServedAtDepth: make([]int64, len(first.servedDepth)),
	}
	var totalLatency float64
	treeDelta := make([]int64, len(first.treeLoad))
	coreDelta := make([]int64, len(first.coreLoad))
	originDelta := make([]int64, len(first.originServed))
	for i, e := range engines {
		s := snapOf(i)
		totalLatency += e.totalLatency - s.totalLatency
		res.Transfers += statDelta(e.transfers, s.transfers)
		res.Evictions += statDelta(e.evictions, s.evictions)
		res.Stats.Leaf += statDelta(e.stats.Leaf, s.stats.Leaf)
		res.Stats.Sibling += statDelta(e.stats.Sibling, s.stats.Sibling)
		res.Stats.Tree += statDelta(e.stats.Tree, s.stats.Tree)
		res.Stats.Core += statDelta(e.stats.Core, s.stats.Core)
		res.Stats.Origin += statDelta(e.stats.Origin, s.stats.Origin)
		for j := range e.popLatency {
			var oldL float64
			var oldR int64
			if s.popLatency != nil {
				oldL, oldR = s.popLatency[j], s.popRequests[j]
			}
			res.PoPLatency[j] += e.popLatency[j] - oldL
			res.PoPRequests[j] += e.popRequests[j] - oldR
		}
		for j := range e.servedDepth {
			var old int64
			if s.servedDepth != nil {
				old = s.servedDepth[j]
			}
			res.ServedAtDepth[j] += e.servedDepth[j] - old
		}
		for j := range e.treeLoad {
			var old int64
			if s.treeLoad != nil {
				old = s.treeLoad[j]
			}
			treeDelta[j] += e.treeLoad[j] - old
		}
		for j := range e.coreLoad {
			var old int64
			if s.coreLoad != nil {
				old = s.coreLoad[j]
			}
			coreDelta[j] += e.coreLoad[j] - old
		}
		for j := range e.originServed {
			var old int64
			if s.originServed != nil {
				old = s.originServed[j]
			}
			originDelta[j] += e.originServed[j] - old
		}
	}
	if n > 0 {
		res.MeanLatency = totalLatency / float64(n)
	}
	for _, d := range treeDelta {
		if d > res.MaxLinkLoad {
			res.MaxLinkLoad = d
		}
	}
	for _, d := range coreDelta {
		if d > res.MaxLinkLoad {
			res.MaxLinkLoad = d
		}
	}
	for _, d := range originDelta {
		res.TotalOrigin += d
		if d > res.MaxOriginLoad {
			res.MaxOriginLoad = d
		}
	}
	return res
}
