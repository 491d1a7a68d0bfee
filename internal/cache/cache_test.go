package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLRUBasic(t *testing.T) {
	c := NewLRU[string, int](2, nil)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v,%v want 1,true", v, ok)
	}
	// "b" is now LRU; inserting "c" must evict it.
	if evicted := c.Put("c", 3); !evicted {
		t.Fatal("Put(c) did not report eviction")
	}
	if c.Contains("b") {
		t.Fatal("b survived eviction")
	}
	if !c.Contains("a") || !c.Contains("c") {
		t.Fatalf("cache contents wrong: keys=%v", c.Keys())
	}
}

func TestLRUUpdateDoesNotEvict(t *testing.T) {
	c := NewLRU[int, int](2, nil)
	c.Put(1, 10)
	c.Put(2, 20)
	if evicted := c.Put(1, 11); evicted {
		t.Fatal("updating an existing key reported eviction")
	}
	if v, _ := c.Get(1); v != 11 {
		t.Fatalf("value not updated: %d", v)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestLRUEvictionHookAndOrder(t *testing.T) {
	var evictions []int
	c := NewLRU[int, string](3, func(k int, _ string) { evictions = append(evictions, k) })
	for i := 1; i <= 5; i++ {
		c.Put(i, "x")
	}
	// 1 then 2 evicted, in that order.
	if len(evictions) != 2 || evictions[0] != 1 || evictions[1] != 2 {
		t.Fatalf("evictions = %v, want [1 2]", evictions)
	}
	keys := c.Keys()
	want := []int{5, 4, 3}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys() = %v, want %v", keys, want)
		}
	}
}

func TestLRURemoveSkipsHook(t *testing.T) {
	hookCalls := 0
	c := NewLRU[int, int](2, func(int, int) { hookCalls++ })
	c.Put(1, 1)
	if !c.Remove(1) {
		t.Fatal("Remove(1) = false")
	}
	if c.Remove(1) {
		t.Fatal("second Remove(1) = true")
	}
	if hookCalls != 0 {
		t.Fatalf("Remove invoked eviction hook %d times", hookCalls)
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	c := NewLRU[int, int](0, nil)
	if c.Put(1, 1) {
		t.Fatal("zero-capacity Put reported eviction")
	}
	if c.Contains(1) || c.Len() != 0 {
		t.Fatal("zero-capacity cache stored an entry")
	}
}

func TestLRUPeekAndStats(t *testing.T) {
	c := NewLRU[int, int](2, nil)
	c.Put(1, 1)
	c.Put(2, 2)
	if _, ok := c.Peek(1); !ok {
		t.Fatal("Peek(1) missed")
	}
	// Peek must not refresh recency: 1 stays LRU and gets evicted.
	c.Put(3, 3)
	if c.Contains(1) {
		t.Fatal("Peek refreshed recency")
	}
	c.Get(2)
	c.Get(99)
	h, m := c.Stats()
	if h != 1 || m != 1 {
		t.Fatalf("Stats = %d,%d want 1,1", h, m)
	}
}

func TestNegativeCapacityPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"LRU":      func() { NewLRU[int, int](-1, nil) },
		"IntLRU":   func() { NewIntLRU(-1, nil) },
		"LFU":      func() { NewLFU[int, int](-1, nil) },
		"SizedLRU": func() { NewSizedIntLRU(-1, nil) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		})
	}
}

func TestIntLRUBasic(t *testing.T) {
	var evicted []int32
	c := NewIntLRU(3, func(o int32) { evicted = append(evicted, o) })
	for i := int32(0); i < 3; i++ {
		c.Insert(i)
	}
	if !c.Lookup(0) { // 0 becomes MRU
		t.Fatal("Lookup(0) missed")
	}
	c.Insert(3) // evicts 1
	c.Insert(4) // evicts 2
	if len(evicted) != 2 || evicted[0] != 1 || evicted[1] != 2 {
		t.Fatalf("evicted = %v, want [1 2]", evicted)
	}
	keys := c.Keys()
	want := []int32{4, 3, 0}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", keys, want)
		}
	}
	h, m := c.Stats()
	if h != 1 || m != 0 {
		t.Fatalf("Stats = %d,%d", h, m)
	}
}

func TestIntLRUReinsertRefreshes(t *testing.T) {
	c := NewIntLRU(2, nil)
	c.Insert(1)
	c.Insert(2)
	if c.Insert(1) { // refresh, no eviction
		t.Fatal("re-insert reported eviction")
	}
	c.Insert(3) // 2 is LRU now
	if c.Contains(2) || !c.Contains(1) || !c.Contains(3) {
		t.Fatalf("contents wrong: %v", c.Keys())
	}
}

func TestIntLRURemoveReusesSlot(t *testing.T) {
	c := NewIntLRU(2, nil)
	c.Insert(1)
	c.Insert(2)
	if !c.Remove(1) {
		t.Fatal("Remove(1) failed")
	}
	if c.Remove(1) {
		t.Fatal("double Remove succeeded")
	}
	// Should be able to insert two more without eviction of 2... capacity 2,
	// len 1, so inserting one object must not evict.
	if c.Insert(5) {
		t.Fatal("Insert after Remove evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestIntLRUZeroCapacity(t *testing.T) {
	c := NewIntLRU(0, nil)
	c.Insert(1)
	if c.Contains(1) || c.Len() != 0 {
		t.Fatal("zero-capacity IntLRU stored an object")
	}
	if c.Lookup(1) {
		t.Fatal("zero-capacity Lookup hit")
	}
}

func TestLFUBasic(t *testing.T) {
	c := NewLFU[string, int](2, nil)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a")
	c.Get("a") // a: freq 3, b: freq 1
	c.Put("c", 3)
	if c.Contains("b") {
		t.Fatal("b (least frequent) survived eviction")
	}
	if !c.Contains("a") || !c.Contains("c") {
		t.Fatal("wrong contents after eviction")
	}
	if f := c.Freq("a"); f != 3 {
		t.Fatalf("Freq(a) = %d, want 3", f)
	}
	if f := c.Freq("zzz"); f != 0 {
		t.Fatalf("Freq(zzz) = %d, want 0", f)
	}
}

func TestLFUTieBreaksByRecency(t *testing.T) {
	c := NewLFU[int, int](3, nil)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(3, 3) // all freq 1; LRU within bucket is 1
	c.Put(4, 4)
	if c.Contains(1) {
		t.Fatal("tie-break evicted wrong entry (1 should go first)")
	}
}

func TestLFUEvictionHookAndRemove(t *testing.T) {
	var ev []int
	c := NewLFU[int, int](1, func(k, _ int) { ev = append(ev, k) })
	c.Put(1, 1)
	c.Put(2, 2)
	if len(ev) != 1 || ev[0] != 1 {
		t.Fatalf("evictions = %v, want [1]", ev)
	}
	if !c.Remove(2) || c.Remove(2) {
		t.Fatal("Remove behaved wrongly")
	}
	if len(ev) != 1 {
		t.Fatal("Remove invoked eviction hook")
	}
}

func TestLFUZeroCapacity(t *testing.T) {
	c := NewLFU[int, int](0, nil)
	if c.Put(1, 1) {
		t.Fatal("zero-capacity Put reported eviction")
	}
	if c.Len() != 0 {
		t.Fatal("zero-capacity LFU stored an entry")
	}
}

func TestLFUUpdateValue(t *testing.T) {
	c := NewLFU[int, int](2, nil)
	c.Put(1, 10)
	c.Put(1, 11)
	if v, ok := c.Get(1); !ok || v != 11 {
		t.Fatalf("Get(1) = %v,%v want 11,true", v, ok)
	}
	// Put+Put+Get = freq 3.
	if f := c.Freq(1); f != 3 {
		t.Fatalf("Freq = %d, want 3", f)
	}
}

// Property: LFU never exceeds capacity and its stats account every Get.
func TestLFUInvariantsQuick(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		capacity := int(capRaw%8) + 1
		c := NewLFU[int32, struct{}](capacity, nil)
		r := rand.New(rand.NewSource(seed))
		var gets int64
		for i := 0; i < 400; i++ {
			obj := int32(r.Intn(24))
			if r.Intn(2) == 0 {
				c.Put(obj, struct{}{})
			} else {
				c.Get(obj)
				gets++
			}
			if c.Len() > capacity {
				return false
			}
		}
		h, m := c.Stats()
		return h+m == gets
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSizedLRUBasic(t *testing.T) {
	var ev []int32
	c := NewSizedIntLRU(100, func(o int32) { ev = append(ev, o) })
	if !c.Insert(1, 40) || !c.Insert(2, 40) {
		t.Fatal("inserts rejected")
	}
	if c.Used() != 80 {
		t.Fatalf("Used = %d, want 80", c.Used())
	}
	c.Lookup(1)     // 1 MRU
	c.Insert(3, 40) // must evict 2
	if len(ev) != 1 || ev[0] != 2 {
		t.Fatalf("evictions = %v, want [2]", ev)
	}
	if c.Used() != 80 || c.Len() != 2 {
		t.Fatalf("Used=%d Len=%d", c.Used(), c.Len())
	}
}

func TestSizedLRURejectsOversize(t *testing.T) {
	c := NewSizedIntLRU(10, nil)
	if c.Insert(1, 11) {
		t.Fatal("oversize object accepted")
	}
	if c.Insert(2, -1) {
		t.Fatal("negative size accepted")
	}
	if !c.Insert(3, 10) {
		t.Fatal("exact-fit object rejected")
	}
}

func TestSizedLRUResizeExisting(t *testing.T) {
	c := NewSizedIntLRU(100, nil)
	c.Insert(1, 30)
	c.Insert(2, 30)
	c.Insert(1, 80) // grow 1: 2 must be evicted to fit
	if c.Contains(2) {
		t.Fatal("resize did not evict to fit")
	}
	if c.Used() != 80 {
		t.Fatalf("Used = %d, want 80", c.Used())
	}
}

func TestSizedLRURemove(t *testing.T) {
	c := NewSizedIntLRU(100, nil)
	c.Insert(1, 60)
	if !c.Remove(1) || c.Remove(1) {
		t.Fatal("Remove misbehaved")
	}
	if c.Used() != 0 || c.Len() != 0 {
		t.Fatalf("Used=%d Len=%d after Remove", c.Used(), c.Len())
	}
}

// Property: Used() always equals the sum of resident sizes and never exceeds
// the budget.
func TestSizedLRUAccountingQuick(t *testing.T) {
	f := func(seed int64) bool {
		const budget = 256
		sizes := map[int32]int64{}
		c := NewSizedIntLRU(budget, func(o int32) { delete(sizes, o) })
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 400; i++ {
			obj := int32(r.Intn(20))
			switch r.Intn(3) {
			case 0:
				sz := int64(r.Intn(80))
				if c.Insert(obj, sz) {
					sizes[obj] = sz
				}
			case 1:
				c.Lookup(obj)
			case 2:
				if c.Remove(obj) {
					delete(sizes, obj)
				}
			}
			var sum int64
			for _, s := range sizes {
				sum += s
			}
			if c.Used() != sum || c.Used() > budget || c.Len() != len(sizes) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkIntLRUInsertLookup(b *testing.B) {
	c := NewIntLRU(4096, nil)
	r := rand.New(rand.NewSource(1))
	objs := make([]int32, 1<<16)
	for i := range objs {
		objs[i] = int32(r.Intn(20000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := objs[i&(1<<16-1)]
		if !c.Lookup(o) {
			c.Insert(o)
		}
	}
}

func BenchmarkGenericLRUInsertLookup(b *testing.B) {
	c := NewLRU[int32, struct{}](4096, nil)
	r := rand.New(rand.NewSource(1))
	objs := make([]int32, 1<<16)
	for i := range objs {
		objs[i] = int32(r.Intn(20000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := objs[i&(1<<16-1)]
		if _, ok := c.Get(o); !ok {
			c.Put(o, struct{}{})
		}
	}
}

func BenchmarkLFUInsertLookup(b *testing.B) {
	c := NewLFU[int32, struct{}](4096, nil)
	r := rand.New(rand.NewSource(1))
	objs := make([]int32, 1<<16)
	for i := range objs {
		objs[i] = int32(r.Intn(20000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := objs[i&(1<<16-1)]
		if _, ok := c.Get(o); !ok {
			c.Put(o, struct{}{})
		}
	}
}
