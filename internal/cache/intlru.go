package cache

import "math"

// IntLRU is a compact, exact LRU cache over int32 object ids with no values,
// designed for the simulator, which instantiates thousands of caches (one
// per router) and touches each only a few times per epoch, so nearly every
// operation starts on cold memory. A hit touches about two cache lines: the
// index entry mapping the object to the stamp of its latest access (a
// per-cache clock that only grows), and the access log, which appends
// (object, stamp). A log entry is live while the index holds its object with
// that stamp, so the oldest live entry is the least recently used object.
// The log is compacted to its live entries when full (at most 2*capacity+2
// entries, amortised O(1)), renumbering them when the clock would wrap; see
// DESIGN.md "Simulator design notes". Operations perform no allocation after
// construction.
//
// IntLRU is not safe for concurrent use.
type IntLRU struct {
	index intIndex // object id -> stamp of its latest access
	log   []uint64 // accesses, oldest first, from head on: packEntry(obj, stamp)
	head  int      // first log entry not yet consumed by eviction
	clock uint32   // last stamp issued; stamps start at 1

	hits     int64
	misses   int64
	capacity int
	onEvict  func(obj int32)
}

// NewIntLRU returns an IntLRU with the given capacity. onEvict, if non-nil,
// is invoked with each object displaced by an insertion. A zero capacity is
// permitted and caches nothing. NewIntLRU panics if capacity is negative.
func NewIntLRU(capacity int, onEvict func(obj int32)) *IntLRU {
	if capacity < 0 {
		panic("cache: negative capacity")
	}
	return &IntLRU{
		index:    newIntIndex(capacity),
		log:      make([]uint64, 0, 2*capacity+2),
		capacity: capacity,
		onEvict:  onEvict,
	}
}

// Lookup reports whether obj is cached, marking it most recently used and
// updating hit/miss statistics.
//
//icn:noalloc
func (c *IntLRU) Lookup(obj int32) bool {
	i, ok := c.index.find(obj)
	if !ok {
		c.misses++
		return false
	}
	c.hits++
	c.touch(i, obj)
	return true
}

// Contains reports whether obj is cached without side effects.
//
//icn:noalloc
func (c *IntLRU) Contains(obj int32) bool {
	_, ok := c.index.find(obj)
	return ok
}

// Insert adds obj, marking it most recently used. Inserting a present object
// only refreshes recency. It returns true if another object was evicted.
//
//icn:noalloc
func (c *IntLRU) Insert(obj int32) (evicted bool) {
	if c.capacity == 0 {
		return false
	}
	i, ok := c.index.find(obj)
	if !ok && c.index.n == c.capacity {
		c.evictOldest()
		evicted = true
		i, _ = c.index.find(obj) // the deletion may have shifted obj's slot
	}
	c.touch(i, obj)
	return evicted
}

// Remove deletes obj, reporting whether it was present. The eviction hook is
// not invoked. The object's log entries go stale and are skipped later.
func (c *IntLRU) Remove(obj int32) bool { return c.index.remove(obj) }

// Len returns the number of cached objects.
func (c *IntLRU) Len() int { return c.index.n }

// Victim returns the object an insertion of an absent object would evict —
// the least recently used one — without mutating any state. ok is false
// while the cache has room (no insertion evicts) or is empty.
//
//icn:noalloc
func (c *IntLRU) Victim() (int32, bool) {
	if c.capacity == 0 || c.index.n < c.capacity {
		return 0, false
	}
	for _, e := range c.log[c.head:] {
		if c.live(e) {
			return entryKey(e), true
		}
	}
	return 0, false
}

// Cap returns the capacity.
func (c *IntLRU) Cap() int { return c.capacity }

// Stats returns cumulative hit and miss counts from Lookup calls.
func (c *IntLRU) Stats() (hits, misses int64) { return c.hits, c.misses }

// Keys returns cached objects from most to least recently used.
func (c *IntLRU) Keys() []int32 {
	out := make([]int32, 0, c.index.n)
	for j := len(c.log) - 1; j >= c.head; j-- {
		if c.live(c.log[j]) {
			out = append(out, entryKey(c.log[j]))
		}
	}
	return out
}

// touch stamps obj, whose index slot (present or the empty slot it will
// take) is i, as the most recent access and logs it. Compaction rewrites
// stamps in place and never moves a slot, so i stays valid across it.
//
//icn:noalloc
func (c *IntLRU) touch(i int, obj int32) {
	if len(c.log) == cap(c.log) || c.clock == math.MaxUint32 {
		c.compact()
	}
	c.clock++
	c.index.set(i, obj, c.clock)
	c.log = append(c.log, packEntry(obj, c.clock))
}

// live reports whether log entry e is its object's latest access.
//
//icn:noalloc
func (c *IntLRU) live(e uint64) bool {
	i, ok := c.index.find(entryKey(e))
	return ok && c.index.slots[i] == e
}

// evictOldest removes the least recently used object: the first live entry
// at or after the log head.
//
//icn:noalloc
func (c *IntLRU) evictOldest() {
	for ; c.head < len(c.log); c.head++ {
		if e := c.log[c.head]; c.live(e) {
			c.head++
			c.index.remove(entryKey(e))
			if c.onEvict != nil {
				c.onEvict(entryKey(e))
			}
			return
		}
	}
}

// compact drops consumed and stale log entries, keeping the live ones in
// order. When the stamp clock is exhausted it also renumbers them 1..n,
// rewriting each object's index stamp in place; relative order, and so the
// recency order, is unchanged.
//
//icn:noalloc
func (c *IntLRU) compact() {
	renumber := c.clock == math.MaxUint32
	kept := c.log[:0]
	for _, e := range c.log[c.head:] {
		i, ok := c.index.find(entryKey(e))
		if !ok || c.index.slots[i] != e {
			continue
		}
		if renumber {
			e = packEntry(entryKey(e), uint32(len(kept)+1))
			c.index.slots[i] = e
		}
		kept = append(kept, e)
	}
	c.log, c.head = kept, 0
	if renumber {
		c.clock = uint32(len(kept))
	}
}

// intIndex is the package's one int32-keyed index: an open-addressed hash
// table from int32 keys to nonzero uint32 values, each slot packed as
// packEntry(key, value) with 0 marking an empty slot. Fibonacci hashing
// picks the home slot, collisions probe linearly, deletion shifts the
// following cluster back (no tombstones), and the table is sized once for
// at most 3/4 load, so it never allocates after construction.
type intIndex struct {
	slots []uint64
	shift uint32 // 32 - log2(len(slots))
	n     int
}

// newIntIndex returns an index with room for maxKeys keys.
func newIntIndex(maxKeys int) intIndex {
	size, bits := 1, uint32(0)
	for size*3 < maxKeys*4 {
		size, bits = size<<1, bits+1
	}
	return intIndex{slots: make([]uint64, size), shift: 32 - bits}
}

func packEntry(key int32, val uint32) uint64 { return uint64(uint32(key))<<32 | uint64(val) }
func entryKey(e uint64) int32                { return int32(e >> 32) }

// home returns key's preferred slot.
func (x *intIndex) home(key int32) int {
	return int(uint32(key) * 0x9E3779B9 >> x.shift)
}

// find returns key's slot and true, or the empty slot where key would go and
// false.
//
//icn:noalloc
func (x *intIndex) find(key int32) (int, bool) {
	mask := len(x.slots) - 1
	for i := x.home(key); ; i = (i + 1) & mask {
		e := x.slots[i]
		if e == 0 {
			return i, false
		}
		if entryKey(e) == key {
			return i, true
		}
	}
}

// slot returns the slot number ARC and CAR store for key (as slot+1, since
// 0 marks an empty entry).
//
//icn:noalloc
func (x *intIndex) slot(key int32) (int32, bool) {
	i, ok := x.find(key)
	return int32(uint32(x.slots[i])) - 1, ok
}

// set stores val (nonzero) for key at slot i, as returned by find(key).
//
//icn:noalloc
func (x *intIndex) set(i int, key int32, val uint32) {
	if x.slots[i] == 0 {
		x.n++
	}
	x.slots[i] = packEntry(key, val)
}

// putSlot maps key to slot.
//
//icn:noalloc
func (x *intIndex) putSlot(key, slot int32) {
	i, _ := x.find(key)
	x.set(i, key, uint32(slot)+1)
}

// remove deletes key, reporting whether it was present, and shifts back
// every later entry of its cluster that may now sit closer to its home slot.
//
//icn:noalloc
func (x *intIndex) remove(key int32) bool {
	i, ok := x.find(key)
	if !ok {
		return false
	}
	mask := len(x.slots) - 1
	for j := (i + 1) & mask; x.slots[j] != 0; j = (j + 1) & mask {
		if (j-x.home(entryKey(x.slots[j])))&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = 0
	x.n--
	return true
}
