package cache

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
)

// Snapshotter is the serialization half of the policy zoo, backing the
// simulator's crash-safe checkpoint/resume (internal/checkpoint). Every
// policy serializes its complete behavioral state — replacement order,
// adaptation targets, reference bits, ghost lists, frequency sketches, and
// hit/miss statistics — such that a restored policy is observationally
// indistinguishable from the original: any future sequence of
// Lookup/Contains/Insert calls produces identical results and identical
// eviction sequences. Physical slot numbers and map layout are NOT part of
// the contract; restore rebuilds them, which is valid precisely because no
// Policy method exposes them.
//
// AppendState appends the policy's state to buf and returns the extended
// slice. RestoreState consumes one state image from the front of data and
// returns the remainder; it must be called on a freshly constructed policy
// of identical capacity, and fails (leaving the policy unusable) on
// truncated, corrupt, or mismatched input. Restore never fires the eviction
// hook.
type Snapshotter interface {
	AppendState(buf []byte) []byte
	RestoreState(data []byte) (rest []byte, err error)
}

// ErrCorruptSnapshot reports a truncated, tampered, or mismatched policy
// state image.
var ErrCorruptSnapshot = errors.New("cache: corrupt policy snapshot")

// Per-policy snapshot tags: a one-byte header guarding against restoring a
// blob into the wrong policy type.
const (
	snapLRU = byte(iota + 1)
	snapLFU
	snapARC
	snapCAR
	snapTinyLFU
	snapSizedLRU
)

func appendUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }
func appendVarint(buf []byte, v int64) []byte   { return binary.AppendVarint(buf, v) }

func readUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, ErrCorruptSnapshot
	}
	return v, data[n:], nil
}

func readVarint(data []byte) (int64, []byte, error) {
	v, n := binary.Varint(data)
	if n <= 0 {
		return 0, nil, ErrCorruptSnapshot
	}
	return v, data[n:], nil
}

func readKey(data []byte) (int32, []byte, error) {
	v, rest, err := readVarint(data)
	if err != nil {
		return 0, nil, err
	}
	if v != int64(int32(v)) {
		return 0, nil, fmt.Errorf("%w: key %d overflows int32", ErrCorruptSnapshot, v)
	}
	return int32(v), rest, nil
}

func appendSnapHeader(buf []byte, tag byte, capacity int) []byte {
	buf = append(buf, tag)
	return appendUvarint(buf, uint64(capacity))
}

func readSnapHeader(data []byte, tag byte, capacity int) ([]byte, error) {
	if len(data) == 0 || data[0] != tag {
		return nil, fmt.Errorf("%w: wrong policy tag", ErrCorruptSnapshot)
	}
	c, rest, err := readUvarint(data[1:])
	if err != nil {
		return nil, err
	}
	if c != uint64(capacity) {
		return nil, fmt.Errorf("%w: capacity %d, snapshot has %d", ErrCorruptSnapshot, capacity, c)
	}
	return rest, nil
}

// readCount reads an element count that must fit in limit entries and, at
// minBytes bytes per element, in the remaining input — rejecting corrupt
// lengths before any allocation is sized by them.
func readCount(data []byte, limit int, minBytes int) (int, []byte, error) {
	n, rest, err := readUvarint(data)
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(limit) || int(n)*minBytes > len(rest) {
		return 0, nil, fmt.Errorf("%w: count %d exceeds capacity or input", ErrCorruptSnapshot, n)
	}
	return int(n), rest, nil
}

// Compile-time conformance: the whole zoo is snapshottable.
var (
	_ Snapshotter = (*IntLRU)(nil)
	_ Snapshotter = (*IntLFU)(nil)
	_ Snapshotter = (*ARC)(nil)
	_ Snapshotter = (*CAR)(nil)
	_ Snapshotter = (*TinyLFU)(nil)
	_ Snapshotter = (*SizedIntLRU)(nil)
)

// AppendState serializes the LRU: statistics, then resident keys in
// MRU-to-LRU order.
func (c *IntLRU) AppendState(buf []byte) []byte {
	buf = appendSnapHeader(buf, snapLRU, c.capacity)
	buf = appendVarint(buf, c.hits)
	buf = appendVarint(buf, c.misses)
	buf = appendUvarint(buf, uint64(c.index.n))
	for _, k := range c.Keys() {
		buf = appendVarint(buf, int64(k))
	}
	return buf
}

// RestoreState rebuilds the recency order by re-inserting the keys from the
// LRU end, so the freshly constructed cache ends in the serialized order.
func (c *IntLRU) RestoreState(data []byte) ([]byte, error) {
	rest, err := readSnapHeader(data, snapLRU, c.capacity)
	if err != nil {
		return nil, err
	}
	if c.Len() != 0 {
		return nil, errors.New("cache: IntLRU.RestoreState on a non-empty cache")
	}
	if c.hits, rest, err = readVarint(rest); err != nil {
		return nil, err
	}
	if c.misses, rest, err = readVarint(rest); err != nil {
		return nil, err
	}
	n, rest, err := readCount(rest, c.capacity, 1)
	if err != nil {
		return nil, err
	}
	keys := make([]int32, n)
	for i := range keys {
		if keys[i], rest, err = readKey(rest); err != nil {
			return nil, err
		}
	}
	for i := n - 1; i >= 0; i-- {
		c.Insert(keys[i])
		if c.Len() != n-i {
			return nil, fmt.Errorf("%w: duplicate key %d", ErrCorruptSnapshot, keys[i])
		}
	}
	return rest, nil
}

// AppendState serializes the LFU: statistics, then each frequency bucket in
// ascending-frequency order with its entries most-recently-touched first.
func (c *IntLFU) AppendState(buf []byte) []byte {
	l := c.c
	buf = appendSnapHeader(buf, snapLFU, l.capacity)
	buf = appendVarint(buf, l.hits)
	buf = appendVarint(buf, l.misses)
	buf = appendUvarint(buf, uint64(l.buckets.Len()))
	for be := l.buckets.Front(); be != nil; be = be.Next() {
		b := be.Value.(*lfuBucket[int32, struct{}])
		buf = appendVarint(buf, b.freq)
		buf = appendUvarint(buf, uint64(b.entries.Len()))
		for ee := b.entries.Front(); ee != nil; ee = ee.Next() {
			buf = appendVarint(buf, int64(ee.Value.(*lfuEntry[int32, struct{}]).key))
		}
	}
	return buf
}

// RestoreState rebuilds the bucket structure directly: buckets must arrive
// strictly ascending in frequency and non-empty, exactly as serialized.
func (c *IntLFU) RestoreState(data []byte) ([]byte, error) {
	l := c.c
	rest, err := readSnapHeader(data, snapLFU, l.capacity)
	if err != nil {
		return nil, err
	}
	if l.Len() != 0 {
		return nil, errors.New("cache: IntLFU.RestoreState on a non-empty cache")
	}
	if l.hits, rest, err = readVarint(rest); err != nil {
		return nil, err
	}
	if l.misses, rest, err = readVarint(rest); err != nil {
		return nil, err
	}
	nb, rest, err := readCount(rest, l.capacity, 2)
	if err != nil {
		return nil, err
	}
	total := 0
	prevFreq := int64(0)
	for i := 0; i < nb; i++ {
		var freq int64
		if freq, rest, err = readVarint(rest); err != nil {
			return nil, err
		}
		if freq <= prevFreq || freq < 1 {
			return nil, fmt.Errorf("%w: bucket frequencies not ascending", ErrCorruptSnapshot)
		}
		prevFreq = freq
		var ne int
		if ne, rest, err = readCount(rest, l.capacity-total, 1); err != nil {
			return nil, err
		}
		if ne == 0 {
			return nil, fmt.Errorf("%w: empty frequency bucket", ErrCorruptSnapshot)
		}
		total += ne
		b := &lfuBucket[int32, struct{}]{freq: freq, entries: list.New()}
		be := l.buckets.PushBack(b)
		for j := 0; j < ne; j++ {
			var key int32
			if key, rest, err = readKey(rest); err != nil {
				return nil, err
			}
			if _, dup := l.entries[key]; dup {
				return nil, fmt.Errorf("%w: duplicate key %d", ErrCorruptSnapshot, key)
			}
			e := &lfuEntry[int32, struct{}]{key: key, bucket: be}
			e.self = b.entries.PushBack(e)
			l.entries[key] = e
		}
	}
	return rest, nil
}

// AppendState serializes ARC: the adaptation target p, statistics, then all
// four lists (T1, T2, B1, B2) with keys in MRU-to-LRU order.
func (c *ARC) AppendState(buf []byte) []byte {
	buf = appendSnapHeader(buf, snapARC, c.capacity)
	buf = appendVarint(buf, int64(c.p))
	buf = appendVarint(buf, c.hits)
	buf = appendVarint(buf, c.misses)
	for li := arcT1; li <= arcB2; li++ {
		buf = appendUvarint(buf, uint64(c.lens[li]))
		for s := c.head[li]; s >= 0; s = c.next[s] {
			buf = appendVarint(buf, int64(c.keys[s]))
		}
	}
	return buf
}

// RestoreState rebuilds the four lists into fresh slots, enforcing ARC's
// structural invariants (|T1|+|T2| <= c, |T1|+|B1| <= c, total <= 2c).
func (c *ARC) RestoreState(data []byte) ([]byte, error) {
	rest, err := readSnapHeader(data, snapARC, c.capacity)
	if err != nil {
		return nil, err
	}
	if c.index.n != 0 {
		return nil, errors.New("cache: ARC.RestoreState on a non-empty cache")
	}
	var p int64
	if p, rest, err = readVarint(rest); err != nil {
		return nil, err
	}
	if p < 0 || p > int64(c.capacity) {
		return nil, fmt.Errorf("%w: adaptation target %d outside [0, %d]", ErrCorruptSnapshot, p, c.capacity)
	}
	c.p = int(p)
	if c.hits, rest, err = readVarint(rest); err != nil {
		return nil, err
	}
	if c.misses, rest, err = readVarint(rest); err != nil {
		return nil, err
	}
	var counts [4]int
	var keys [4][]int32
	for li := arcT1; li <= arcB2; li++ {
		if counts[li], rest, err = readCount(rest, 2*c.capacity, 1); err != nil {
			return nil, err
		}
		keys[li] = make([]int32, counts[li])
		for i := range keys[li] {
			if keys[li][i], rest, err = readKey(rest); err != nil {
				return nil, err
			}
		}
	}
	if counts[arcT1]+counts[arcT2] > c.capacity ||
		counts[arcT1]+counts[arcB1] > c.capacity ||
		counts[arcT1]+counts[arcT2]+counts[arcB1]+counts[arcB2] > 2*c.capacity {
		return nil, fmt.Errorf("%w: ARC list sizes violate invariants", ErrCorruptSnapshot)
	}
	for li := arcT1; li <= arcB2; li++ {
		// push prepends at the head, so feeding keys LRU-first reproduces
		// the serialized MRU-to-LRU order.
		for i := len(keys[li]) - 1; i >= 0; i-- {
			k := keys[li][i]
			if _, dup := c.index.slot(k); dup {
				return nil, fmt.Errorf("%w: duplicate key %d", ErrCorruptSnapshot, k)
			}
			c.pushHead(li, c.alloc(k))
		}
	}
	return rest, nil
}

// AppendState serializes CAR: the adaptation target p, statistics, then all
// four lists in clock order (head to tail), with reference bits for the
// resident clocks T1/T2.
func (c *CAR) AppendState(buf []byte) []byte {
	buf = appendSnapHeader(buf, snapCAR, c.capacity)
	buf = appendVarint(buf, int64(c.p))
	buf = appendVarint(buf, c.hits)
	buf = appendVarint(buf, c.misses)
	for li := carT1; li <= carB2; li++ {
		buf = appendUvarint(buf, uint64(c.lens[li]))
		for s := c.head[li]; s >= 0; s = c.next[s] {
			buf = appendVarint(buf, int64(c.keys[s]))
			if li <= carT2 {
				ref := byte(0)
				if c.ref[s] {
					ref = 1
				}
				buf = append(buf, ref)
			}
		}
	}
	return buf
}

// RestoreState rebuilds the clocks into fresh slots. pushTail appends, so
// feeding keys in serialized head-to-tail order reproduces each list.
func (c *CAR) RestoreState(data []byte) ([]byte, error) {
	rest, err := readSnapHeader(data, snapCAR, c.capacity)
	if err != nil {
		return nil, err
	}
	if c.index.n != 0 {
		return nil, errors.New("cache: CAR.RestoreState on a non-empty cache")
	}
	var p int64
	if p, rest, err = readVarint(rest); err != nil {
		return nil, err
	}
	if p < 0 || p > int64(c.capacity) {
		return nil, fmt.Errorf("%w: adaptation target %d outside [0, %d]", ErrCorruptSnapshot, p, c.capacity)
	}
	c.p = int(p)
	if c.hits, rest, err = readVarint(rest); err != nil {
		return nil, err
	}
	if c.misses, rest, err = readVarint(rest); err != nil {
		return nil, err
	}
	var resident int
	for li := carT1; li <= carB2; li++ {
		var n int
		if n, rest, err = readCount(rest, 2*c.capacity, 1); err != nil {
			return nil, err
		}
		if li <= carT2 {
			resident += n
			if resident > c.capacity {
				return nil, fmt.Errorf("%w: CAR resident count exceeds capacity", ErrCorruptSnapshot)
			}
		} else if c.index.n+n > 2*c.capacity {
			return nil, fmt.Errorf("%w: CAR total count exceeds 2x capacity", ErrCorruptSnapshot)
		}
		for i := 0; i < n; i++ {
			var k int32
			if k, rest, err = readKey(rest); err != nil {
				return nil, err
			}
			ref := false
			if li <= carT2 {
				if len(rest) == 0 || rest[0] > 1 {
					return nil, ErrCorruptSnapshot
				}
				ref = rest[0] == 1
				rest = rest[1:]
			}
			if _, dup := c.index.slot(k); dup {
				return nil, fmt.Errorf("%w: duplicate key %d", ErrCorruptSnapshot, k)
			}
			slot := c.alloc(k)
			c.ref[slot] = ref
			c.pushTail(li, slot)
		}
	}
	return rest, nil
}

// AppendState serializes the admission filter — sketch words and sample
// progress — followed by the inner policy's state. It panics if the inner
// policy does not implement Snapshotter; every zoo policy does.
func (c *TinyLFU) AppendState(buf []byte) []byte {
	inner, ok := c.inner.(Snapshotter)
	if !ok {
		panic(fmt.Sprintf("cache: TinyLFU inner policy %T does not implement Snapshotter", c.inner))
	}
	buf = appendSnapHeader(buf, snapTinyLFU, c.capacity)
	buf = appendVarint(buf, int64(c.ops))
	buf = appendUvarint(buf, uint64(len(c.table)))
	for _, w := range c.table {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return inner.AppendState(buf)
}

// RestoreState restores the sketch in place and delegates the remainder to
// the inner policy.
func (c *TinyLFU) RestoreState(data []byte) ([]byte, error) {
	inner, ok := c.inner.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("cache: TinyLFU inner policy %T does not implement Snapshotter", c.inner)
	}
	rest, err := readSnapHeader(data, snapTinyLFU, c.capacity)
	if err != nil {
		return nil, err
	}
	var ops int64
	if ops, rest, err = readVarint(rest); err != nil {
		return nil, err
	}
	if ops < 0 || ops > int64(c.sample) {
		return nil, fmt.Errorf("%w: sketch sample count %d outside [0, %d]", ErrCorruptSnapshot, ops, c.sample)
	}
	c.ops = int(ops)
	words, rest, err := readUvarint(rest)
	if err != nil {
		return nil, err
	}
	if words != uint64(len(c.table)) {
		return nil, fmt.Errorf("%w: sketch has %d words, want %d", ErrCorruptSnapshot, words, len(c.table))
	}
	if len(rest) < 8*len(c.table) {
		return nil, ErrCorruptSnapshot
	}
	for i := range c.table {
		c.table[i] = binary.LittleEndian.Uint64(rest[8*i:])
	}
	rest = rest[8*len(c.table):]
	return inner.RestoreState(rest)
}

// AppendState serializes the byte-budget LRU: statistics, then entries in
// MRU-to-LRU order with their sizes.
func (c *SizedIntLRU) AppendState(buf []byte) []byte {
	buf = append(buf, snapSizedLRU)
	buf = appendVarint(buf, c.budget)
	buf = appendVarint(buf, c.hits)
	buf = appendVarint(buf, c.misses)
	buf = appendUvarint(buf, uint64(len(c.entries)))
	for e := c.head; e != nil; e = e.next {
		buf = appendVarint(buf, int64(e.obj))
		buf = appendVarint(buf, e.size)
	}
	return buf
}

// RestoreState rebuilds the recency order by re-inserting from the LRU end.
func (c *SizedIntLRU) RestoreState(data []byte) ([]byte, error) {
	if len(data) == 0 || data[0] != snapSizedLRU {
		return nil, fmt.Errorf("%w: wrong policy tag", ErrCorruptSnapshot)
	}
	if c.Len() != 0 {
		return nil, errors.New("cache: SizedIntLRU.RestoreState on a non-empty cache")
	}
	budget, rest, err := readVarint(data[1:])
	if err != nil {
		return nil, err
	}
	if budget != c.budget {
		return nil, fmt.Errorf("%w: budget %d, snapshot has %d", ErrCorruptSnapshot, c.budget, budget)
	}
	if c.hits, rest, err = readVarint(rest); err != nil {
		return nil, err
	}
	if c.misses, rest, err = readVarint(rest); err != nil {
		return nil, err
	}
	n, rest, err := readCount(rest, len(rest), 2)
	if err != nil {
		return nil, err
	}
	objs := make([]int32, n)
	sizes := make([]int64, n)
	for i := 0; i < n; i++ {
		if objs[i], rest, err = readKey(rest); err != nil {
			return nil, err
		}
		if sizes[i], rest, err = readVarint(rest); err != nil {
			return nil, err
		}
	}
	for i := n - 1; i >= 0; i-- {
		if !c.Insert(objs[i], sizes[i]) || c.Len() != n-i {
			return nil, fmt.Errorf("%w: entries do not fit the budget", ErrCorruptSnapshot)
		}
	}
	return rest, nil
}
