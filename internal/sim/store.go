package sim

import "idicn/internal/cache"

// store is the simulator's view of a content cache — exactly cache.Policy,
// so every policy in the zoo (IntLRU, IntLFU, ARC, Compact CAR, TinyLFU
// admission) plugs into the engine directly, with no per-policy adapter
// structs. Lookup touches (a hit refreshes replacement state); Contains
// peeks without side effects; Insert admits an object, possibly evicting
// others (evictions are reported through the hook supplied at construction)
// or declining outright (admission filters, oversize objects) — the engine
// checks Contains after Insert wherever admission matters.
type store = cache.Policy

// sizedStore is the one remaining adapter: it bridges the byte-budget LRU,
// whose Insert needs a size argument, to the unit-cost Policy interface by
// carrying the per-object size table. The table is validated against the
// object universe at engine construction (see newEngine), so the indexing
// here cannot go out of range for any request the engine accepts.
type sizedStore struct {
	c     *cache.SizedIntLRU
	sizes []int64
}

//icn:noalloc
func (s sizedStore) Lookup(obj int32) bool { return s.c.Lookup(obj) }

//icn:noalloc
func (s sizedStore) Contains(obj int32) bool { return s.c.Contains(obj) }

// Insert admits obj at its table size, reporting whether residents were
// evicted to make room (the Policy contract; the byte-budget cache itself
// reports admission, so eviction is recovered from the length delta).
//
//icn:noalloc
func (s sizedStore) Insert(obj int32) bool {
	before := s.c.Len()
	wasPresent := s.c.Contains(obj)
	if !s.c.Insert(obj, s.sizes[obj]) {
		return false // oversize: rejected, nothing evicted
	}
	if wasPresent {
		return s.c.Len() < before
	}
	return s.c.Len() <= before
}

func (s sizedStore) Len() int { return s.c.Len() }
