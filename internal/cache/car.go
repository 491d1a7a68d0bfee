package cache

// CAR is a Compact CAR cache: CLOCK with Adaptive Replacement (Bansal &
// Modha, FAST'04) in the compact, flat-array representation proposed for ICN
// line-rate routers ("Compact CAR: low-overhead cache replacement for ICN
// routers"). Like ARC it balances a recency clock T1 against a frequency
// clock T2 with ghost lists B1/B2 steering the adaptation target p — but a
// hit only sets a reference bit, with no list surgery at all, so the hit path
// is an index probe plus one bit write: the cheapest possible touch for a
// router forwarding at line rate. List maintenance is deferred to misses,
// where the clock hand sweeps reference bits.
//
// The compact part: residents and ghosts share one slotLists (2*capacity
// flat slots, one id->slot index), so a ghost costs a few words instead of a
// full descriptor. Operations perform no allocation after construction.
//
// CAR is not safe for concurrent use.
type CAR struct {
	capacity int
	p        int // adaptation target for |T1|, in [0, capacity]

	// Lists carT1..carB2. head is the clock hand (T1/T2) or the LRU end
	// (B1/B2); tail is the insertion end.
	slotLists
	ref []bool // slot -> clock reference bit (residents only)

	onEvict EvictFunc

	hits   int64
	misses int64
}

// The four CAR lists. Residents have where <= carT2. T1/T2 are clocks
// traversed head->tail by the hand; B1/B2 are LRU lists discarded at the
// head.
const (
	carT1 = uint8(iota)
	carT2
	carB1
	carB2
)

// NewCAR returns a Compact CAR with the given capacity. onEvict, if non-nil,
// is invoked with each object displaced from residency (ghost recycling is
// silent). A zero capacity is permitted and caches nothing. NewCAR panics if
// capacity is negative.
func NewCAR(capacity int, onEvict EvictFunc) *CAR {
	if capacity < 0 {
		panic("cache: negative capacity")
	}
	slots := 2 * capacity
	return &CAR{capacity: capacity, slotLists: newSlotLists(slots), ref: make([]bool, slots), onEvict: onEvict}
}

// Lookup reports whether obj is resident. A hit only sets the slot's
// reference bit — no list movement — which is what makes CAR's touch path
// line-rate friendly.
//
//icn:noalloc
func (c *CAR) Lookup(obj int32) bool {
	if slot, ok := c.index.slot(obj); ok && c.where[slot] <= carT2 {
		c.hits++
		c.ref[slot] = true
		return true
	}
	c.misses++
	return false
}

// Contains reports whether obj is resident without side effects (the
// reference bit is not touched).
//
//icn:noalloc
func (c *CAR) Contains(obj int32) bool {
	slot, ok := c.index.slot(obj)
	return ok && c.where[slot] <= carT2
}

// Insert admits obj after a miss, following the CAR algorithm: run the clock
// replacement if the cache is full, recycle ghost history, then place the
// object at the tail of T1 (new) or T2 (ghost hit, after adapting p) with a
// clear reference bit. Inserting a resident object just sets its reference
// bit. It reports whether a resident was evicted.
//
//icn:noalloc
func (c *CAR) Insert(obj int32) bool {
	if c.capacity == 0 {
		return false
	}
	slot, ok := c.index.slot(obj)
	if ok && c.where[slot] <= carT2 {
		c.ref[slot] = true
		return false
	}
	evicted := false
	if c.lens[carT1]+c.lens[carT2] == c.capacity {
		c.replace()
		evicted = true
		if !ok { // no ghost history for obj: trim the ghost lists
			if c.lens[carT1]+c.lens[carB1] == c.capacity {
				c.dropGhost(carB1)
			} else if c.lens[carT1]+c.lens[carT2]+c.lens[carB1]+c.lens[carB2] == 2*c.capacity {
				c.dropGhost(carB2)
			}
		}
	}
	if !ok {
		s := c.alloc(obj)
		c.ref[s] = false
		c.pushTail(carT1, s)
		return evicted
	}
	// Ghost hit: adapt p toward the list that would have kept obj resident.
	if c.where[slot] == carB1 {
		c.p = min(c.p+max(1, c.lens[carB2]/c.lens[carB1]), c.capacity)
	} else {
		c.p = max(c.p-max(1, c.lens[carB1]/c.lens[carB2]), 0)
	}
	c.unlink(slot)
	c.ref[slot] = false
	c.pushTail(carT2, slot)
	return evicted
}

// Len returns the number of resident objects.
func (c *CAR) Len() int { return c.lens[carT1] + c.lens[carT2] }

// Cap returns the capacity.
func (c *CAR) Cap() int { return c.capacity }

// Stats returns cumulative hit and miss counts from Lookup calls.
func (c *CAR) Stats() (hits, misses int64) { return c.hits, c.misses }

// Target returns the current adaptation target p for |T1|, for tests and
// diagnostics.
func (c *CAR) Target() int { return c.p }

// Victim returns the entry under the clock hand replace would examine first,
// without mutating reference bits. The peek is approximate — a set reference
// bit would actually earn the entry a second chance — but deterministic,
// which is all the TinyLFU admission comparison needs. ok is false while the
// cache is not yet full.
//
//icn:noalloc
func (c *CAR) Victim() (int32, bool) {
	if c.capacity == 0 || c.lens[carT1]+c.lens[carT2] < c.capacity {
		return 0, false
	}
	if c.lens[carT1] >= max(1, c.p) {
		return c.keys[c.head[carT1]], true
	}
	return c.keys[c.head[carT2]], true
}

// replace runs the clock hand until a resident with a clear reference bit is
// demoted to its ghost list: referenced T1 pages earn promotion to T2,
// referenced T2 pages recirculate, and the first unreferenced page found is
// evicted (hook fired) with its id retained as a ghost.
//
//icn:noalloc
func (c *CAR) replace() {
	for {
		if c.lens[carT1] >= max(1, c.p) {
			slot := c.head[carT1]
			if !c.ref[slot] {
				c.unlink(slot)
				c.pushTail(carB1, slot)
				if c.onEvict != nil {
					c.onEvict(c.keys[slot])
				}
				return
			}
			c.ref[slot] = false
			c.unlink(slot)
			c.pushTail(carT2, slot)
		} else {
			slot := c.head[carT2]
			if !c.ref[slot] {
				c.unlink(slot)
				c.pushTail(carB2, slot)
				if c.onEvict != nil {
					c.onEvict(c.keys[slot])
				}
				return
			}
			c.ref[slot] = false
			c.unlink(slot)
			c.pushTail(carT2, slot)
		}
	}
}

// dropGhost recycles the LRU ghost (head) of the given list.
//
//icn:noalloc
func (c *CAR) dropGhost(list uint8) {
	if slot := c.head[list]; slot >= 0 {
		c.drop(slot)
	}
}
