package sim

import (
	"math"
	"slices"

	"idicn/internal/topo"
)

// replicaIndex tracks which routers currently cache each object, supporting
// the idealized zero-cost nearest-replica lookup of ICN-NR. Cache inserts
// and evictions keep it exact via the caches' eviction hooks.
//
// Each object's replica set is a sorted []topo.NodeID rather than a map:
// membership updates are O(log n) binary search plus a memmove, and the
// order groups an object's replicas by PoP, shallowest first within a PoP,
// which is what lets nearest examine one candidate per remote PoP. Slices
// retain their capacity across removals, so steady-state churn (insert on
// delivery, remove on eviction) performs no heap allocation once a set has
// reached its high-water size.
type replicaIndex struct {
	perObj [][]topo.NodeID // sorted ascending per object
}

func newReplicaIndex(objects int) *replicaIndex {
	return &replicaIndex{perObj: make([][]topo.NodeID, objects)}
}

//icn:noalloc
func (ri *replicaIndex) add(obj int32, node topo.NodeID) {
	s := ri.perObj[obj]
	i, found := slices.BinarySearch(s, node)
	if found {
		return
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = node
	ri.perObj[obj] = s
}

//icn:noalloc
func (ri *replicaIndex) remove(obj int32, node topo.NodeID) {
	s := ri.perObj[obj]
	i, found := slices.BinarySearch(s, node)
	if !found {
		return
	}
	copy(s[i:], s[i+1:])
	ri.perObj[obj] = s[:len(s)-1]
}

// nearest returns the replica of obj closest to the given leaf, with
// deterministic tie-breaking on NodeID, among replicas accepted by ok (used
// to skip capacity-overloaded and failed caches; nil accepts everything).
// found is false when no replica is admissible. skipOwn leaves out the
// requester's own PoP altogether: a shard reads that PoP from its live index
// and everyone else from the shared one.
//
// The work is proportional to the PoPs holding a copy, not to the copies. A
// sorted row groups replicas by PoP (NodeID = pop*treeSize + local), and
// locals are numbered breadth-first, so each group is shallowest-first. A
// cross-tree replica costs leafDepth + coreDist + replicaDepth, so within a
// remote group the first admissible entry has both the least distance and,
// at that distance, the least NodeID: nothing behind it can win, and the
// rest of the group is stepped over by search. A group whose
// leafDepth + coreDist alone does not beat the best so far is not entered.
// Only the requester's own group needs the per-replica LCA tree distance.
//
//icn:noalloc
func (ri *replicaIndex) nearest(net *topo.Network, pop int, leafLocal int32, obj int32,
	ok func(topo.NodeID) bool, skipOwn bool) (best topo.NodeID, dist int, found bool) {
	s := ri.perObj[obj]
	leafDepth := net.DepthOf(leafLocal)
	dist = math.MaxInt
	// Groups are visited in ascending NodeID order, so strict < keeps the
	// (distance, NodeID) order among equally distant replicas.
	for i := 0; i < len(s); {
		q, _ := net.Split(s[i])
		start, end := net.Node(q, 0), net.Node(q+1, 0)
		if q == pop {
			for ; !skipOwn && i < len(s) && s[i] < end; i++ {
				if ok != nil && !ok(s[i]) {
					continue
				}
				if d := net.SameTreeDist(leafLocal, int32(s[i]-start)); d < dist {
					best, dist, found = s[i], d, true
				}
			}
		} else if base := leafDepth + net.CoreDist(pop, q); base < dist {
			for ; i < len(s) && s[i] < end; i++ {
				d := base + net.DepthOf(int32(s[i]-start))
				if d >= dist {
					break // the rest of the group is at least as deep
				}
				if ok == nil || ok(s[i]) {
					best, dist, found = s[i], d, true
					break
				}
			}
		}
		i = groupEnd(s, i, end)
	}
	return best, dist, found
}

// groupEnd returns the first index at or after i whose node is not below
// end (len(s) if none), by galloping from i and bisecting the last stride,
// so stepping over a PoP's group costs the logarithm of its size.
//
//icn:noalloc
func groupEnd(s []topo.NodeID, i int, end topo.NodeID) int {
	hi := i
	for step := 1; hi < len(s) && s[hi] < end; step *= 2 {
		i = hi + 1
		hi += step
	}
	hi = min(hi, len(s))
	for i < hi {
		if m := int(uint(i+hi) >> 1); s[m] < end {
			i = m + 1
		} else {
			hi = m
		}
	}
	return i
}
