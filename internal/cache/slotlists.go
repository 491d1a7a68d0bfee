package cache

// slotLists is the flat layout ARC and CAR share: 2*capacity slots (residents
// plus ghosts) threaded onto four doubly linked lists through prev/next, with
// one intIndex from object id to slot. A ghost costs the same few words as a
// resident, and nothing allocates after construction.
type slotLists struct {
	index intIndex // object id -> slot (resident or ghost)
	keys  []int32  // slot -> object id
	where []uint8  // slot -> list
	prev  []int32  // slot -> toward head, -1 at head
	next  []int32  // slot -> toward tail, -1 at tail
	head  [4]int32 // per-list head slot, -1 if empty
	tail  [4]int32 // per-list tail slot, -1 if empty
	lens  [4]int
	free  []int32 // unused slots
}

func newSlotLists(slots int) slotLists {
	l := slotLists{
		index: newIntIndex(slots),
		keys:  make([]int32, slots),
		where: make([]uint8, slots),
		prev:  make([]int32, slots),
		next:  make([]int32, slots),
		head:  [4]int32{-1, -1, -1, -1},
		tail:  [4]int32{-1, -1, -1, -1},
		free:  make([]int32, slots),
	}
	for i := range l.free {
		l.free[i] = int32(slots - 1 - i) // pop from the end: slots in order
	}
	return l
}

// alloc takes a free slot for obj and indexes it; the caller links it.
//
//icn:noalloc
func (l *slotLists) alloc(obj int32) int32 {
	slot := l.free[len(l.free)-1]
	l.free = l.free[:len(l.free)-1]
	l.keys[slot] = obj
	l.index.putSlot(obj, slot)
	return slot
}

// drop unlinks slot, forgets its object, and frees it.
//
//icn:noalloc
func (l *slotLists) drop(slot int32) {
	l.unlink(slot)
	l.index.remove(l.keys[slot])
	l.free = append(l.free, slot)
}

// pushHead links slot at the head of list.
//
//icn:noalloc
func (l *slotLists) pushHead(list uint8, slot int32) {
	l.where[slot] = list
	l.prev[slot] = -1
	l.next[slot] = l.head[list]
	if l.head[list] >= 0 {
		l.prev[l.head[list]] = slot
	}
	l.head[list] = slot
	if l.tail[list] < 0 {
		l.tail[list] = slot
	}
	l.lens[list]++
}

// pushTail links slot at the tail of list.
//
//icn:noalloc
func (l *slotLists) pushTail(list uint8, slot int32) {
	l.where[slot] = list
	l.next[slot] = -1
	l.prev[slot] = l.tail[list]
	if l.tail[list] >= 0 {
		l.next[l.tail[list]] = slot
	}
	l.tail[list] = slot
	if l.head[list] < 0 {
		l.head[list] = slot
	}
	l.lens[list]++
}

// unlink removes slot from whichever list holds it.
//
//icn:noalloc
func (l *slotLists) unlink(slot int32) {
	list := l.where[slot]
	p, n := l.prev[slot], l.next[slot]
	if p >= 0 {
		l.next[p] = n
	} else {
		l.head[list] = n
	}
	if n >= 0 {
		l.prev[n] = p
	} else {
		l.tail[list] = p
	}
	l.lens[list]--
}
