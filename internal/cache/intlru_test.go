package cache

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"idicn/internal/zipfian"
)

// oracleExtremeKeys sit at the edges of int32, where packing a key into the
// top half of a uint64 index or log entry could go wrong.
var oracleExtremeKeys = [...]int32{math.MinInt32, math.MinInt32 + 1, -1 << 30, -1, math.MaxInt32, math.MaxInt32 - 1, 1 << 30, 0}

// oracleKey maps an op byte to a key: one of the extreme keys, or a key from
// a universe of about twice the capacity centred on zero, so hits, misses,
// evictions and negative keys all occur.
func oracleKey(b byte, capacity int) int32 {
	if int(b) < len(oracleExtremeKeys) {
		return oracleExtremeKeys[b]
	}
	u := 2*capacity + 8
	return int32(int(b)%u - u/2)
}

// oracleOps returns n random (operation, key) byte pairs.
func oracleOps(seed int64, n int) []byte {
	ops := make([]byte, 2*n)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// checkIntLRUOracle replays ops, two bytes each (operation, key), against an
// IntLRU whose stamp clock starts at clock and against the generic LRU as
// the reference. Every result must agree, including Victim, Contains (which
// must not disturb the recency order checked at the end) and the eviction
// hook sequence; the access log must stay within 2*capacity+2 entries. It
// returns the IntLRU for further inspection.
func checkIntLRUOracle(capacity int, clock uint32, ops []byte) (*IntLRU, error) {
	var gotEv, refEv []int32
	ref := NewLRU[int32, struct{}](capacity, func(k int32, _ struct{}) { refEv = append(refEv, k) })
	got := NewIntLRU(capacity, func(k int32) { gotEv = append(gotEv, k) })
	got.clock = clock
	for i := 0; i+1 < len(ops); i += 2 {
		obj := oracleKey(ops[i+1], capacity)
		var g, r bool
		switch ops[i] % 5 {
		case 0:
			g, r = got.Insert(obj), ref.Put(obj, struct{}{})
		case 1:
			g = got.Lookup(obj)
			_, r = ref.Get(obj)
		case 2:
			g, r = got.Remove(obj), ref.Remove(obj)
		case 3:
			g, r = got.Contains(obj), ref.Contains(obj)
		case 4:
			var gv, rv int32
			gv, g = got.Victim()
			if keys := ref.Keys(); capacity > 0 && len(keys) == capacity {
				rv, r = keys[len(keys)-1], true
			}
			if gv != rv {
				return got, fmt.Errorf("op %d: Victim = %d, want %d", i/2, gv, rv)
			}
		}
		if g != r {
			return got, fmt.Errorf("op %d (kind %d, key %d): got %v, want %v", i/2, ops[i]%5, obj, g, r)
		}
		if got.Len() != ref.Len() || len(gotEv) != len(refEv) {
			return got, fmt.Errorf("op %d: Len %d evictions %d, want %d and %d", i/2, got.Len(), len(gotEv), ref.Len(), len(refEv))
		}
		if len(got.log) > 2*capacity+2 {
			return got, fmt.Errorf("op %d: log holds %d entries, bound is %d", i/2, len(got.log), 2*capacity+2)
		}
	}
	if !slices.Equal(gotEv, refEv) {
		return got, fmt.Errorf("eviction order %v, want %v", gotEv, refEv)
	}
	if gk, rk := got.Keys(), ref.Keys(); !slices.Equal(gk, rk) {
		return got, fmt.Errorf("Keys = %v, want %v", gk, rk)
	}
	gh, gm := got.Stats()
	rh, rm := ref.Stats()
	if gh != rh || gm != rm {
		return got, fmt.Errorf("Stats = %d,%d, want %d,%d", gh, gm, rh, rm)
	}
	return got, nil
}

// Property: IntLRU behaves identically to the generic LRU at every capacity
// from 0 to 64, over sequences long enough (4000 operations against a log
// of 2*capacity+2) to force many compactions.
func TestIntLRUMatchesGenericLRUQuick(t *testing.T) {
	for capacity := 0; capacity <= 64; capacity++ {
		if _, err := checkIntLRUOracle(capacity, 0, oracleOps(int64(capacity), 4000)); err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
	}
	f := func(seed int64, capRaw uint8) bool {
		_, err := checkIntLRUOracle(int(capRaw)%65, 0, oracleOps(seed, 4000))
		if err != nil {
			t.Log(err)
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// FuzzIntLRU drives the oracle with arbitrary operation sequences,
// capacities and starting stamp clocks; clockBack > 0 starts the clock that
// many stamps short of wraparound.
func FuzzIntLRU(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(uint8(seed*9), uint16(0), oracleOps(seed, 400))
	}
	f.Add(uint8(5), uint16(3), oracleOps(99, 400))
	f.Fuzz(func(t *testing.T, capRaw uint8, clockBack uint16, ops []byte) {
		var clock uint32
		if clockBack > 0 {
			clock = math.MaxUint32 - uint32(clockBack)
		}
		if _, err := checkIntLRUOracle(int(capRaw)%65, clock, ops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestIntLRUStampWraparound starts the stamp clock just short of 1<<32, so
// the compaction pass must renumber the live entries, and the recency order
// must survive it.
func TestIntLRUStampWraparound(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 64} {
		start := uint32(math.MaxUint32 - 3*capacity)
		got, err := checkIntLRUOracle(capacity, start, oracleOps(int64(capacity), 4000))
		if err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
		if got.clock >= start {
			t.Fatalf("capacity %d: clock %d never wrapped", capacity, got.clock)
		}
	}
}

// TestIntLRULogBounded: the access log never exceeds 2*capacity+2 entries,
// whatever the pattern — one key hit over and over (every hit strands a
// stale entry), a scan wider than the cache, or insert/remove churn.
func TestIntLRULogBounded(t *testing.T) {
	patterns := map[string]func(c *IntLRU, i int){
		"hot-key": func(c *IntLRU, i int) {
			if !c.Lookup(3) {
				c.Insert(3)
			}
		},
		"scan": func(c *IntLRU, i int) { c.Insert(int32(i % (3*c.Cap() + 1))) },
		"churn": func(c *IntLRU, i int) {
			if i%3 == 2 {
				c.Remove(int32(i / 3 % 5))
			} else {
				c.Insert(int32(i % 7))
			}
		},
	}
	for name, step := range patterns {
		for _, capacity := range []int{0, 1, 5, 64} {
			c := NewIntLRU(capacity, nil)
			for i := 0; i < 5000; i++ {
				step(c, i)
				if len(c.log) > 2*capacity+2 || c.head > len(c.log) {
					t.Fatalf("%s, capacity %d, op %d: log %d entries (head %d), bound %d",
						name, capacity, i, len(c.log), c.head, 2*capacity+2)
				}
			}
		}
	}
}

// TestIntIndexMatchesMap checks the shared open-addressed index against a Go
// map under random insert/overwrite/delete traffic at full load, including
// keys that differ only in their high bits, so backward-shift deletion runs
// through long clusters.
func TestIntIndexMatchesMap(t *testing.T) {
	for _, maxKeys := range []int{1, 2, 3, 5, 16, 100} {
		r := rand.New(rand.NewSource(int64(maxKeys)))
		x := newIntIndex(maxKeys)
		ref := map[int32]int32{}
		pool := make([]int32, 3*maxKeys)
		for i := range pool {
			pool[i] = int32(r.Uint32())
			if i%2 == 1 {
				pool[i] = int32(i) << 24
			}
		}
		for op := 0; op < 4000; op++ {
			k := pool[r.Intn(len(pool))]
			if _, ok := ref[k]; ok && r.Intn(2) == 0 {
				x.remove(k)
				delete(ref, k)
			} else if ok || len(ref) < maxKeys {
				s := int32(r.Intn(1 << 20))
				x.putSlot(k, s)
				ref[k] = s
			}
			if x.n != len(ref) {
				t.Fatalf("maxKeys %d op %d: n = %d, want %d", maxKeys, op, x.n, len(ref))
			}
			for _, k := range pool {
				s, ok := x.slot(k)
				if want, wok := ref[k]; ok != wok || (ok && s != want) {
					t.Fatalf("maxKeys %d op %d: slot(%d) = %d,%v, want %d,%v", maxKeys, op, k, s, ok, want, wok)
				}
			}
		}
	}
}

// BenchmarkIntLRUColdCaches measures the regime the simulator's EDGE runs
// live in: one cache per ATT access leaf (108 PoPs x 32 leaves) at the mean
// EDGE/ATT leaf capacity (5% of 11,111 objects), fed one Zipf(1.04) stream
// round-robin, so consecutive operations land on different caches and start
// on cold memory. BenchmarkIntLRUInsertLookup's single 4,096-entry cache
// stays in L1/L2 and cannot see the memory layout.
func BenchmarkIntLRUColdCaches(b *testing.B) {
	const leaves, objects, capacity = 108 * 32, 11_111, 556
	caches := make([]*IntLRU, leaves)
	for i := range caches {
		caches[i] = NewIntLRU(capacity, nil)
	}
	z := zipfian.New(1.04, objects)
	r := rand.New(rand.NewSource(1))
	stream := make([]int32, 1<<21)
	for i := range stream {
		stream[i] = int32(z.Sample(r))
	}
	step := func(i int) {
		c := caches[i%leaves]
		if obj := stream[i&(len(stream)-1)]; !c.Lookup(obj) {
			c.Insert(obj)
		}
	}
	for i := range stream { // one warm-up pass: the caches reach steady state
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}
