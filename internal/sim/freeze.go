package sim

import (
	"fmt"

	"idicn/internal/cache"
	"idicn/internal/topo"
	"idicn/internal/trace"
)

// StreamState is the complete state of a sharded streaming run at an epoch
// barrier, sufficient to resume the run with a Result bit-identical to one
// that never stopped. It is captured by RunStream's Checkpoint hook right
// after the epoch exchange, when the shared replica index has absorbed every
// shard's deltas and the frozen root bitsets are synchronized — so the
// cross-shard state is serialized once, not per shard.
//
// Failure-plan state (failed sets, resolver status) is deliberately absent:
// it is a deterministic function of the request index and is rebuilt by the
// first post-resume epoch's advanceFailures, exactly as an uninterrupted run
// rebuilds it at that barrier.
type StreamState struct {
	// Requests is the number of requests simulated so far (the barrier's
	// request index).
	Requests int64
	// EpochLen is the run's epoch length. It is part of a streaming result's
	// identity, so resuming under a different EpochLen is refused.
	EpochLen int64
	// TracePos is the trace stream's position at the barrier.
	TracePos trace.StreamPos
	// WarmupDone records whether the post-warmup metric snapshots have been
	// taken; Snaps holds them (per shard) when it is true.
	WarmupDone bool
	Snaps      []MetricState
	// Shards holds each shard's private state, in shard (PoP) order.
	Shards []ShardState
	// Replicas is the replica index (per object, sorted ascending node ids),
	// nil when the run's routing keeps none. At a barrier the run's shared
	// index is the whole truth (each shard's live own-PoP index equals its
	// slice of it), so this one table restores them all.
	Replicas [][]int32
	// RootLive is the live PoP-root bitset state; rows are nil for PoPs
	// whose root has no cache, and the slice is nil when no root has one.
	// rootFrozen equals rootLive at a barrier and is rebuilt from it.
	RootLive [][]uint64
}

// ShardState is one shard's private half of a StreamState.
type ShardState struct {
	Metrics MetricState
	// Served is the per-node capacity-window serve counter, nil when the
	// config has no Capacity limit.
	Served []int64
	// Caches is the concatenated cache.Snapshotter state of every cache the
	// shard owns, in NodeID order — the provisioning order, so a freshly
	// provisioned engine restores them by walking its own cache array.
	Caches []byte
}

// MetricState is a serializable copy of one engine's cumulative metric
// counters. Floats are carried bit-exactly by the checkpoint codec, so
// restored latency sums continue from the same binary value.
type MetricState struct {
	TotalLatency float64
	PoPLatency   []float64
	PoPRequests  []int64
	Transfers    int64
	Evictions    int64
	Stats        ServeStats
	ServedDepth  []int64
	TreeLoad     []int64
	CoreLoad     []int64
	OriginServed []int64
}

func metricStateOf(totalLatency float64, popLatency []float64, popRequests []int64,
	transfers, evictions int64, stats ServeStats, servedDepth, treeLoad, coreLoad, originServed []int64) MetricState {
	return MetricState{
		TotalLatency: totalLatency,
		PoPLatency:   append([]float64(nil), popLatency...),
		PoPRequests:  append([]int64(nil), popRequests...),
		Transfers:    transfers,
		Evictions:    evictions,
		Stats:        stats,
		ServedDepth:  append([]int64(nil), servedDepth...),
		TreeLoad:     append([]int64(nil), treeLoad...),
		CoreLoad:     append([]int64(nil), coreLoad...),
		OriginServed: append([]int64(nil), originServed...),
	}
}

// shapeCheck validates that a restored slice has the length the engine's
// arrays were built with.
func shapeCheck(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("sim: checkpoint %s has %d entries, engine expects %d", what, got, want)
	}
	return nil
}

func (m *MetricState) validate(e *Engine) error {
	if err := shapeCheck("PoPLatency", len(m.PoPLatency), len(e.popLatency)); err != nil {
		return err
	}
	if err := shapeCheck("PoPRequests", len(m.PoPRequests), len(e.popRequests)); err != nil {
		return err
	}
	if err := shapeCheck("ServedDepth", len(m.ServedDepth), len(e.servedDepth)); err != nil {
		return err
	}
	if err := shapeCheck("TreeLoad", len(m.TreeLoad), len(e.treeLoad)); err != nil {
		return err
	}
	if err := shapeCheck("CoreLoad", len(m.CoreLoad), len(e.coreLoad)); err != nil {
		return err
	}
	return shapeCheck("OriginServed", len(m.OriginServed), len(e.originServed))
}

func (m *MetricState) applyTo(e *Engine) error {
	if err := m.validate(e); err != nil {
		return err
	}
	e.totalLatency = m.TotalLatency
	copy(e.popLatency, m.PoPLatency)
	copy(e.popRequests, m.PoPRequests)
	e.transfers = m.Transfers
	e.evictions = m.Evictions
	e.stats = m.Stats
	copy(e.servedDepth, m.ServedDepth)
	copy(e.treeLoad, m.TreeLoad)
	copy(e.coreLoad, m.CoreLoad)
	copy(e.originServed, m.OriginServed)
	return nil
}

func (m *MetricState) toSnapshot() *snapshot {
	return &snapshot{
		totalLatency: m.TotalLatency,
		popLatency:   append([]float64(nil), m.PoPLatency...),
		popRequests:  append([]int64(nil), m.PoPRequests...),
		transfers:    m.Transfers,
		evictions:    m.Evictions,
		stats:        m.Stats,
		servedDepth:  append([]int64(nil), m.ServedDepth...),
		treeLoad:     append([]int64(nil), m.TreeLoad...),
		coreLoad:     append([]int64(nil), m.CoreLoad...),
		originServed: append([]int64(nil), m.OriginServed...),
	}
}

func snapMetricState(s *snapshot) MetricState {
	return metricStateOf(s.totalLatency, s.popLatency, s.popRequests,
		s.transfers, s.evictions, s.stats, s.servedDepth, s.treeLoad, s.coreLoad, s.originServed)
}

// freezeStream captures the run's full state at an epoch barrier. It must be
// called right after exchange, when the shared replica index is current,
// rootFrozen equals rootLive, and served counters are reconciled.
func freezeStream(engines []*Engine, shared *shardShared, pos trace.StreamPos,
	requests, epochLen int64, snaps []*snapshot) (*StreamState, error) {
	st := &StreamState{
		Requests:   requests,
		EpochLen:   epochLen,
		TracePos:   pos,
		WarmupDone: snaps != nil,
		Shards:     make([]ShardState, len(engines)),
	}
	if snaps != nil {
		st.Snaps = make([]MetricState, len(snaps))
		for i, s := range snaps {
			st.Snaps[i] = snapMetricState(s)
		}
	}
	for i, e := range engines {
		sh := &st.Shards[i]
		sh.Metrics = metricStateOf(e.totalLatency, e.popLatency, e.popRequests,
			e.transfers, e.evictions, e.stats, e.servedDepth, e.treeLoad, e.coreLoad, e.originServed)
		if e.served != nil {
			sh.Served = append([]int64(nil), e.served...)
		}
		for node, c := range e.caches {
			if c == nil {
				continue
			}
			snap, ok := c.(cache.Snapshotter)
			if !ok {
				return nil, fmt.Errorf("sim: cache at node %d (%T) does not support checkpointing", node, c)
			}
			sh.Caches = snap.AppendState(sh.Caches)
		}
	}
	// Cross-shard state, serialized once.
	if ri := shared.replicas; ri != nil {
		st.Replicas = make([][]int32, len(ri.perObj))
		for obj, row := range ri.perObj {
			if len(row) == 0 {
				continue
			}
			out := make([]int32, len(row))
			for j, n := range row {
				out[j] = int32(n)
			}
			st.Replicas[obj] = out
		}
	}
	if shared.rootLive != nil {
		st.RootLive = make([][]uint64, len(shared.rootLive))
		for p, row := range shared.rootLive {
			if row != nil {
				st.RootLive[p] = append([]uint64(nil), row...)
			}
		}
	}
	return st, nil
}

// thawStream restores a StreamState into freshly constructed shard engines
// (newShardedEngines with the identical Config — the checkpoint store's
// fingerprint guards that identity). It returns the per-shard warmup
// snapshots when the checkpointed run had already passed warmup.
func thawStream(engines []*Engine, shared *shardShared, st *StreamState) ([]*snapshot, error) {
	if st.Requests < 0 {
		return nil, fmt.Errorf("sim: checkpoint has negative request count %d", st.Requests)
	}
	if err := shapeCheck("shards", len(st.Shards), len(engines)); err != nil {
		return nil, err
	}
	nodeCount := engines[0].net.NodeCount()
	for i, e := range engines {
		sh := &st.Shards[i]
		if err := sh.Metrics.applyTo(e); err != nil {
			return nil, fmt.Errorf("sim: shard %d: %w", i, err)
		}
		if (sh.Served != nil) != (e.served != nil) {
			return nil, fmt.Errorf("sim: shard %d capacity counters mismatch the config", i)
		}
		if sh.Served != nil {
			if err := shapeCheck("Served", len(sh.Served), len(e.served)); err != nil {
				return nil, fmt.Errorf("sim: shard %d: %w", i, err)
			}
			copy(e.served, sh.Served)
		}
		data := sh.Caches
		for node, c := range e.caches {
			if c == nil {
				continue
			}
			snap, ok := c.(cache.Snapshotter)
			if !ok {
				return nil, fmt.Errorf("sim: cache at node %d (%T) does not support checkpointing", node, c)
			}
			rest, err := snap.RestoreState(data)
			if err != nil {
				return nil, fmt.Errorf("sim: shard %d cache at node %d: %w", i, node, err)
			}
			data = rest
		}
		if len(data) != 0 {
			return nil, fmt.Errorf("sim: shard %d has %d trailing cache-state bytes", i, len(data))
		}
	}
	// Replica index: one copy into the shared index, and each row's per-PoP
	// runs into the owning shards' live indexes.
	if (st.Replicas != nil) != (shared.replicas != nil) {
		return nil, fmt.Errorf("sim: checkpoint replica index mismatches the config's routing")
	}
	if st.Replicas != nil {
		if err := shapeCheck("Replicas", len(st.Replicas), len(shared.replicas.perObj)); err != nil {
			return nil, err
		}
		for obj, row := range st.Replicas {
			for j, n := range row {
				if n < 0 || int(n) >= nodeCount {
					return nil, fmt.Errorf("sim: checkpoint replica of object %d at node %d out of range", obj, n)
				}
				if j > 0 && row[j-1] >= n {
					return nil, fmt.Errorf("sim: checkpoint replicas of object %d not sorted", obj)
				}
			}
		}
		for obj, row := range st.Replicas {
			if len(row) == 0 {
				continue
			}
			nodes := make([]topo.NodeID, len(row))
			for j, n := range row {
				nodes[j] = topo.NodeID(n)
				own := ownerOf(engines, nodes[j]).replicas
				own.perObj[obj] = append(own.perObj[obj], nodes[j])
			}
			shared.replicas.perObj[obj] = nodes
		}
	}
	if (st.RootLive != nil) != (shared.rootLive != nil) {
		return nil, fmt.Errorf("sim: checkpoint root bitsets mismatch the placement")
	}
	if st.RootLive != nil {
		if err := shapeCheck("RootLive", len(st.RootLive), len(shared.rootLive)); err != nil {
			return nil, err
		}
		for p, row := range st.RootLive {
			if (row != nil) != (shared.rootLive[p] != nil) {
				return nil, fmt.Errorf("sim: checkpoint root bitset row %d mismatches the placement", p)
			}
			if row == nil {
				continue
			}
			if err := shapeCheck("RootLive row", len(row), len(shared.rootLive[p])); err != nil {
				return nil, err
			}
			copy(shared.rootLive[p], row)
			copy(shared.rootFrozen[p], row)
		}
	}
	var snaps []*snapshot
	if st.WarmupDone {
		if err := shapeCheck("Snaps", len(st.Snaps), len(engines)); err != nil {
			return nil, err
		}
		snaps = make([]*snapshot, len(engines))
		for i := range st.Snaps {
			snaps[i] = st.Snaps[i].toSnapshot()
		}
	}
	return snaps, nil
}
