package cache

// ARC is an Adaptive Replacement Cache (Megiddo & Modha, FAST'03) over int32
// object ids. It balances recency against frequency online: residents live in
// T1 (seen once recently) or T2 (seen at least twice), and two ghost lists
// B1/B2 remember recently evicted ids so the adaptation target p — the
// desired size of T1 — learns from misses that a larger recency or frequency
// partition would have caught. Sequential scans pollute only T1, leaving the
// frequent working set in T2 intact, which is exactly the failure mode of
// plain LRU under ICN router workloads.
//
// All four lists live in one slotLists (2*capacity flat slots, residents
// plus ghosts, one id->slot index), so a ghost costs the same few words as a
// resident. Operations perform no allocation after construction.
//
// ARC is not safe for concurrent use.
type ARC struct {
	capacity  int
	p         int // adaptation target for |T1|, in [0, capacity]
	slotLists     // lists arcT1..arcB2, heads at the MRU end

	onEvict EvictFunc

	hits   int64
	misses int64
}

// The four ARC lists. Residents have where <= arcT2.
const (
	arcT1 = uint8(iota) // resident, seen once recently
	arcT2               // resident, seen at least twice
	arcB1               // ghost of a T1 eviction
	arcB2               // ghost of a T2 eviction
)

// NewARC returns an ARC with the given capacity. onEvict, if non-nil, is
// invoked with each object displaced from residency (ghost recycling is
// silent). A zero capacity is permitted and caches nothing. NewARC panics if
// capacity is negative.
func NewARC(capacity int, onEvict EvictFunc) *ARC {
	if capacity < 0 {
		panic("cache: negative capacity")
	}
	return &ARC{capacity: capacity, slotLists: newSlotLists(2 * capacity), onEvict: onEvict}
}

// Lookup reports whether obj is resident, promoting a hit to the MRU end of
// T2 and updating hit/miss statistics. Ghost entries are misses; their
// adaptation happens on the subsequent Insert.
//
//icn:noalloc
func (c *ARC) Lookup(obj int32) bool {
	if slot, ok := c.index.slot(obj); ok && c.where[slot] <= arcT2 {
		c.hits++
		c.unlink(slot)
		c.pushHead(arcT2, slot)
		return true
	}
	c.misses++
	return false
}

// Contains reports whether obj is resident without side effects.
//
//icn:noalloc
func (c *ARC) Contains(obj int32) bool {
	slot, ok := c.index.slot(obj)
	return ok && c.where[slot] <= arcT2
}

// Insert admits obj after a miss, running the four ARC cases: a resident
// insert refreshes to T2, a ghost hit adapts p and resurrects the entry into
// T2, and a brand-new object lands at the MRU end of T1, evicting through
// replace as needed. It reports whether a resident was evicted.
//
//icn:noalloc
func (c *ARC) Insert(obj int32) bool {
	if c.capacity == 0 {
		return false
	}
	if slot, ok := c.index.slot(obj); ok {
		switch c.where[slot] {
		case arcT1, arcT2:
			c.unlink(slot)
			c.pushHead(arcT2, slot)
			return false
		case arcB1:
			// A larger T1 would have kept this object: grow p.
			c.p = min(c.p+max(1, c.lens[arcB2]/c.lens[arcB1]), c.capacity)
			evicted := c.replace(false)
			c.unlink(slot)
			c.pushHead(arcT2, slot)
			return evicted
		default: // arcB2
			// A larger T2 would have kept it: shrink p.
			c.p = max(c.p-max(1, c.lens[arcB1]/c.lens[arcB2]), 0)
			evicted := c.replace(true)
			c.unlink(slot)
			c.pushHead(arcT2, slot)
			return evicted
		}
	}
	// Case IV: obj is entirely new.
	evicted := false
	if l1 := c.lens[arcT1] + c.lens[arcB1]; l1 == c.capacity {
		if c.lens[arcT1] < c.capacity {
			c.dropGhost(arcB1)
			evicted = c.replace(false)
		} else {
			// B1 is empty and T1 fills the cache: evict T1's LRU outright.
			victim := c.keys[c.tail[arcT1]]
			c.drop(c.tail[arcT1])
			evicted = true
			if c.onEvict != nil {
				c.onEvict(victim)
			}
		}
	} else {
		total := c.lens[arcT1] + c.lens[arcT2] + c.lens[arcB1] + c.lens[arcB2]
		if total >= c.capacity {
			if total == 2*c.capacity {
				c.dropGhost(arcB2)
			}
			evicted = c.replace(false)
		}
	}
	c.pushHead(arcT1, c.alloc(obj))
	return evicted
}

// Len returns the number of resident objects.
func (c *ARC) Len() int { return c.lens[arcT1] + c.lens[arcT2] }

// Cap returns the capacity.
func (c *ARC) Cap() int { return c.capacity }

// Stats returns cumulative hit and miss counts from Lookup calls.
func (c *ARC) Stats() (hits, misses int64) { return c.hits, c.misses }

// Target returns the current adaptation target p for |T1|, for tests and
// diagnostics.
func (c *ARC) Target() int { return c.p }

// Victim returns the resident that replace would demote on the next
// brand-new insertion, without mutating any state. ok is false while the
// cache is not yet full.
//
//icn:noalloc
func (c *ARC) Victim() (int32, bool) {
	if c.capacity == 0 || c.lens[arcT1]+c.lens[arcT2] < c.capacity {
		return 0, false
	}
	if (c.lens[arcT1] >= 1 && c.lens[arcT1] > c.p) || c.lens[arcT2] == 0 {
		return c.keys[c.tail[arcT1]], true
	}
	return c.keys[c.tail[arcT2]], true
}

// replace demotes one resident to its ghost list per the ARC rule, firing the
// eviction hook, and reports whether it did (false only while the cache is
// not yet full, when no eviction is needed).
//
//icn:noalloc
func (c *ARC) replace(inB2 bool) bool {
	if c.lens[arcT1]+c.lens[arcT2] < c.capacity {
		return false
	}
	useT1 := c.lens[arcT1] >= 1 && (c.lens[arcT1] > c.p || (inB2 && c.lens[arcT1] == c.p))
	if !useT1 && c.lens[arcT2] == 0 {
		useT1 = true // defensive: never demote from an empty T2
	}
	var slot int32
	if useT1 {
		slot = c.tail[arcT1]
		c.unlink(slot)
		c.pushHead(arcB1, slot)
	} else {
		slot = c.tail[arcT2]
		c.unlink(slot)
		c.pushHead(arcB2, slot)
	}
	if c.onEvict != nil {
		c.onEvict(c.keys[slot])
	}
	return true
}

// dropGhost recycles the LRU ghost of the given list.
//
//icn:noalloc
func (c *ARC) dropGhost(list uint8) {
	if slot := c.tail[list]; slot >= 0 {
		c.drop(slot)
	}
}
