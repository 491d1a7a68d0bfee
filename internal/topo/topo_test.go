package topo

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	if !g.HasEdge(2, 1) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if g.EdgeCount() != 2 {
		t.Fatalf("EdgeCount = %d, want 2", g.EdgeCount())
	}
	if g.Connected() { // node 3 isolated
		t.Fatal("disconnected graph reported connected")
	}
	mustAddEdge(g, 2, 3)
	if !g.Connected() {
		t.Fatal("connected graph reported disconnected")
	}
	if g.Degree(1) != 2 {
		t.Fatalf("Degree(1) = %d, want 2", g.Degree(1))
	}
}

func TestEdgeIndexCanonical(t *testing.T) {
	g := NewGraph(3)
	mustAddEdge(g, 2, 0)
	i1, ok1 := g.EdgeIndex(0, 2)
	i2, ok2 := g.EdgeIndex(2, 0)
	if !ok1 || !ok2 || i1 != i2 {
		t.Fatalf("EdgeIndex not canonical: (%d,%v) vs (%d,%v)", i1, ok1, i2, ok2)
	}
	if _, ok := g.EdgeIndex(0, 1); ok {
		t.Fatal("EdgeIndex found missing edge")
	}
}

func TestShortestPathsOnLine(t *testing.T) {
	// 0-1-2-3
	g := NewGraph(4)
	mustAddEdge(g, 0, 1)
	mustAddEdge(g, 1, 2)
	mustAddEdge(g, 2, 3)
	p := g.AllPairsShortestPaths()
	if d := p.Dist(0, 3); d != 3 {
		t.Fatalf("Dist(0,3) = %d, want 3", d)
	}
	if nh := p.NextHop(0, 3); nh != 1 {
		t.Fatalf("NextHop(0,3) = %d, want 1", nh)
	}
	path := p.Path(0, 3)
	want := []int32{0, 1, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("Path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("Path = %v, want %v", path, want)
		}
	}
	if got := p.Path(2, 2); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Path(2,2) = %v", got)
	}
	if p.Eccentricity(0) != 3 || p.Eccentricity(1) != 2 {
		t.Fatal("Eccentricity wrong")
	}
}

func TestShortestPathsUnreachable(t *testing.T) {
	g := NewGraph(3)
	mustAddEdge(g, 0, 1)
	p := g.AllPairsShortestPaths()
	if p.Dist(0, 2) != -1 || p.NextHop(0, 2) != -1 || p.Path(0, 2) != nil {
		t.Fatal("unreachable node not reported as -1/nil")
	}
}

// Property: on random connected graphs, BFS distances satisfy the triangle
// inequality and symmetry, and every returned path has the claimed length
// with consecutive nodes adjacent.
func TestShortestPathsPropertiesQuick(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%20) + 3
		r := rand.New(rand.NewSource(seed))
		g := NewGraph(n)
		for i := 1; i < n; i++ {
			mustAddEdge(g, i, r.Intn(i)) // random spanning tree
		}
		for k := 0; k < n/2; k++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				mustAddEdge(g, u, v)
			}
		}
		p := g.AllPairsShortestPaths()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				d := p.Dist(u, v)
				if d != p.Dist(v, u) {
					return false
				}
				for w := 0; w < n; w++ {
					if p.Dist(u, w) > d+p.Dist(v, w) {
						return false
					}
				}
				path := p.Path(u, v)
				if len(path) != d+1 {
					return false
				}
				for i := 1; i < len(path); i++ {
					if !g.HasEdge(int(path[i-1]), int(path[i])) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAllTopologiesValid(t *testing.T) {
	tops := AllTopologies()
	if len(tops) != 8 {
		t.Fatalf("got %d topologies, want 8", len(tops))
	}
	wantNames := []string{"Abilene", "Geant", "Telstra", "Sprint", "Verio", "Tiscali", "Level3", "ATT"}
	largest := ""
	largestN := 0
	for i, tp := range tops {
		if tp.Name != wantNames[i] {
			t.Errorf("topology %d: name %q, want %q", i, tp.Name, wantNames[i])
		}
		if err := tp.Validate(); err != nil {
			t.Errorf("%s: %v", tp.Name, err)
		}
		if tp.Graph.N() > largestN {
			largestN, largest = tp.Graph.N(), tp.Name
		}
	}
	if largest != "ATT" {
		t.Errorf("largest topology is %s, want ATT (as in the paper)", largest)
	}
}

func TestAbileneShape(t *testing.T) {
	a := Abilene()
	if a.Graph.N() != 11 || a.Graph.EdgeCount() != 14 {
		t.Fatalf("Abilene: %d nodes / %d edges, want 11/14", a.Graph.N(), a.Graph.EdgeCount())
	}
	p := a.Graph.AllPairsShortestPaths()
	// Seattle (0) to Atlanta (7) is 4 hops on the real backbone
	// (Seattle-Denver-KansasCity-Houston-Atlanta or via Indianapolis).
	if d := p.Dist(0, 7); d != 4 {
		t.Errorf("Seattle->Atlanta = %d hops, want 4", d)
	}
}

func TestSynthISPDeterministic(t *testing.T) {
	a, b := Sprint(), Sprint()
	if a.Graph.N() != b.Graph.N() || a.Graph.EdgeCount() != b.Graph.EdgeCount() {
		t.Fatal("Sprint not deterministic in size")
	}
	ea, eb := a.Graph.Edges(), b.Graph.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("Sprint edge lists differ between constructions")
		}
	}
	for i := range a.Population {
		if a.Population[i] != b.Population[i] {
			t.Fatal("Sprint populations differ between constructions")
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"Abilene", "Geant", "Telstra", "Sprint", "Verio", "Tiscali", "Level3", "ATT"} {
		tp := ByName(name)
		if tp == nil || tp.Name != name {
			t.Errorf("ByName(%q) = %v", name, tp)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName(nope) != nil")
	}
}

func TestPopulationWeights(t *testing.T) {
	tp := Abilene()
	w := tp.PopulationWeights()
	sum := 0.0
	for _, x := range w {
		if x <= 0 {
			t.Fatal("non-positive weight")
		}
		sum += x
	}
	if sum < 0.999999 || sum > 1.000001 {
		t.Fatalf("weights sum to %v", sum)
	}
}

func TestValidateRejectsBadTopologies(t *testing.T) {
	g := NewGraph(2)
	mustAddEdge(g, 0, 1)
	bad := &Topology{Name: "bad", Graph: g, PoPNames: []string{"a"}, Population: []float64{1, 1}}
	if bad.Validate() == nil {
		t.Error("short PoPNames accepted")
	}
	bad2 := &Topology{Name: "bad2", Graph: g, PoPNames: []string{"a", "b"}, Population: []float64{1, 0}}
	if bad2.Validate() == nil {
		t.Error("zero population accepted")
	}
	g3 := NewGraph(2)
	bad3 := &Topology{Name: "bad3", Graph: g3, PoPNames: []string{"a", "b"}, Population: []float64{1, 1}}
	if bad3.Validate() == nil {
		t.Error("disconnected graph accepted")
	}
}

func newTestNetwork(t testing.TB, arity, depth int) *Network {
	t.Helper()
	return NewNetwork(Abilene(), arity, depth)
}

func TestNetworkSizes(t *testing.T) {
	n := newTestNetwork(t, 2, 5)
	if n.TreeSize() != 63 {
		t.Fatalf("TreeSize = %d, want 63", n.TreeSize())
	}
	if n.LeavesPerTree() != 32 {
		t.Fatalf("LeavesPerTree = %d, want 32", n.LeavesPerTree())
	}
	if n.NodeCount() != 11*63 {
		t.Fatalf("NodeCount = %d, want %d", n.NodeCount(), 11*63)
	}
	if n.TreeLinks() != 11*62 {
		t.Fatalf("TreeLinks = %d", n.TreeLinks())
	}
	n3 := newTestNetwork(t, 4, 3)
	if n3.TreeSize() != 1+4+16+64 {
		t.Fatalf("arity-4 TreeSize = %d, want 85", n3.TreeSize())
	}
	if n3.LeavesPerTree() != 64 {
		t.Fatalf("arity-4 leaves = %d, want 64", n3.LeavesPerTree())
	}
}

func TestNodeSplitRoundTrip(t *testing.T) {
	n := newTestNetwork(t, 2, 4)
	for pop := 0; pop < n.PoPs(); pop++ {
		for local := int32(0); local < int32(n.TreeSize()); local++ {
			id := n.Node(pop, local)
			gp, gl := n.Split(id)
			if gp != pop || gl != local {
				t.Fatalf("Split(Node(%d,%d)) = (%d,%d)", pop, local, gp, gl)
			}
		}
	}
}

func TestParentChildDepth(t *testing.T) {
	n := newTestNetwork(t, 2, 3)
	if n.Parent(0) != -1 {
		t.Fatal("root has a parent")
	}
	if n.Parent(1) != 0 || n.Parent(2) != 0 {
		t.Fatal("children of root wrong")
	}
	if n.FirstChild(0) != 1 {
		t.Fatal("FirstChild(0) != 1")
	}
	leaf := n.LeafStart()
	if n.FirstChild(leaf) != -1 {
		t.Fatal("leaf has a child")
	}
	if n.DepthOf(0) != 0 || n.DepthOf(leaf) != 3 {
		t.Fatal("DepthOf wrong")
	}
	if !n.IsLeaf(leaf) || n.IsLeaf(0) {
		t.Fatal("IsLeaf wrong")
	}
	if n.LevelStart(1) != 1 || n.LevelEnd(1) != 3 || n.LevelStart(3) != 7 || n.LevelEnd(3) != 15 {
		t.Fatal("LevelStart/End wrong")
	}
}

func TestSiblings(t *testing.T) {
	n2 := newTestNetwork(t, 2, 3)
	sib := n2.Siblings(nil, 1)
	if len(sib) != 1 || sib[0] != 2 {
		t.Fatalf("Siblings(1) = %v, want [2]", sib)
	}
	if got := n2.Siblings(nil, 0); len(got) != 0 {
		t.Fatalf("root Siblings = %v", got)
	}
	n4 := NewNetwork(Abilene(), 4, 2)
	sib4 := n4.Siblings(nil, 2)
	if len(sib4) != 3 {
		t.Fatalf("arity-4 Siblings(2) = %v", sib4)
	}
	for _, s := range sib4 {
		if s == 2 || n4.Parent(s) != 0 {
			t.Fatalf("bad sibling %d", s)
		}
	}
}

// Property: parent/child identities hold for random arity/depth/node.
func TestTreeAddressingQuick(t *testing.T) {
	f := func(aRaw, dRaw uint8, lRaw uint16) bool {
		arity := int(aRaw%7) + 2 // 2..8
		depth := int(dRaw%4) + 1 // 1..4
		n := NewNetwork(Abilene(), arity, depth)
		local := int32(lRaw) % int32(n.TreeSize())
		if local == 0 {
			return n.Parent(0) == -1 && n.DepthOf(0) == 0
		}
		p := n.Parent(local)
		if n.DepthOf(p) != n.DepthOf(local)-1 {
			return false
		}
		// local must be within p's child range.
		first := p*int32(arity) + 1
		if local < first || local >= first+int32(arity) {
			return false
		}
		// Walking up DepthOf(local) times must reach the root.
		x := local
		for i := 0; i < n.DepthOf(local); i++ {
			x = n.Parent(x)
		}
		return x == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSameTreeDist(t *testing.T) {
	n := newTestNetwork(t, 2, 3)
	cases := []struct {
		a, b int32
		want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{1, 2, 2},  // siblings
		{7, 8, 2},  // sibling leaves
		{7, 9, 4},  // cousins via depth-1 ancestor
		{7, 14, 6}, // opposite corners
		{7, 3, 1},  // leaf to parent
		{7, 0, 3},  // leaf to root
		{3, 4, 2},  // internal siblings
		{7, 4, 3},  // leaf to uncle
	}
	for _, c := range cases {
		if got := n.SameTreeDist(c.a, c.b); got != c.want {
			t.Errorf("SameTreeDist(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := n.SameTreeDist(c.b, c.a); got != c.want {
			t.Errorf("SameTreeDist(%d,%d) = %d, want %d (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

// Property: SameTreeDist matches the naive ancestor-walk distance.
func TestSameTreeDistQuick(t *testing.T) {
	n := NewNetwork(Abilene(), 3, 4)
	naive := func(a, b int32) int {
		// Collect a's ancestors with depths.
		anc := map[int32]int{}
		d := 0
		for x := a; ; x = n.Parent(x) {
			anc[x] = d
			if x == 0 {
				break
			}
			d++
		}
		d = 0
		for x := b; ; x = n.Parent(x) {
			if up, ok := anc[x]; ok {
				return up + d
			}
			if x == 0 {
				break
			}
			d++
		}
		return -1
	}
	f := func(aRaw, bRaw uint16) bool {
		a := int32(aRaw) % int32(n.TreeSize())
		b := int32(bRaw) % int32(n.TreeSize())
		return n.SameTreeDist(a, b) == naive(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCrossTreeDist(t *testing.T) {
	n := newTestNetwork(t, 2, 2) // tree size 7, leaves 3..6
	// Abilene Seattle(0)-Sunnyvale(1) are adjacent.
	a := n.Leaf(0, 0) // depth 2
	b := n.Leaf(1, 0)
	if got, want := n.Dist(a, b), 2+1+2; got != want {
		t.Fatalf("cross-tree Dist = %d, want %d", got, want)
	}
	// Same tree goes through LCA, not the core.
	if got := n.Dist(a, n.Leaf(0, 1)); got != 2 {
		t.Fatalf("sibling-leaf Dist = %d, want 2", got)
	}
	// Root to remote root is the pure core distance.
	if got := n.Dist(n.Node(0, 0), n.Node(1, 0)); got != 1 {
		t.Fatalf("root-root Dist = %d, want 1", got)
	}
}

func TestLinkIndicesDisjoint(t *testing.T) {
	n := newTestNetwork(t, 2, 3)
	seen := map[int]bool{}
	for pop := 0; pop < n.PoPs(); pop++ {
		for local := int32(1); local < int32(n.TreeSize()); local++ {
			idx := n.TreeLinkIndex(pop, local)
			if idx < 0 || idx >= n.TreeLinks() {
				t.Fatalf("TreeLinkIndex out of range: %d", idx)
			}
			if seen[idx] {
				t.Fatalf("duplicate tree link index %d", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != n.TreeLinks() {
		t.Fatalf("covered %d tree links, want %d", len(seen), n.TreeLinks())
	}
}

// TestCoreLinkIndex pins Network's dense PoP x PoP link table to the graph
// it was built from: on every built-in topology and a parsed custom one,
// every ordered PoP pair either is an edge and gets Graph.EdgeIndex's answer
// in both orientations, or is not and panics (self-pairs included).
func TestCoreLinkIndex(t *testing.T) {
	custom, err := ParseTopology(strings.NewReader(sampleTopo))
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range append(AllTopologies(), custom) {
		n := NewNetwork(tp, 2, 1)
		links := 0
		for p := 0; p < n.PoPs(); p++ {
			for q := 0; q < n.PoPs(); q++ {
				want, ok := tp.Graph.EdgeIndex(int32(p), int32(q))
				got, panicked := func() (i int, panicked bool) {
					defer func() { panicked = recover() != nil }()
					return n.CoreLinkIndex(p, q), false
				}()
				if panicked == ok || (ok && got != want) {
					t.Fatalf("%s: CoreLinkIndex(%d,%d) = %d (panicked: %v), Graph.EdgeIndex says %d, %v",
						tp.Name, p, q, got, panicked, want, ok)
				}
				if ok {
					links++
				}
			}
		}
		if links != 2*n.CoreLinks() {
			t.Fatalf("%s: %d ordered adjacent pairs for %d links", tp.Name, links, n.CoreLinks())
		}
	}
}

func TestNewNetworkPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"arity": func() { NewNetwork(Abilene(), 1, 3) },
		"depth": func() { NewNetwork(Abilene(), 2, 0) },
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

func BenchmarkAllPairsShortestPathsATT(b *testing.B) {
	tp := ATT()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.Graph.AllPairsShortestPaths()
	}
}

func BenchmarkSameTreeDist(b *testing.B) {
	n := NewNetwork(Abilene(), 2, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.SameTreeDist(int32(31+i%32), int32(31+(i*7)%32))
	}
}
