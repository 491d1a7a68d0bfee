package topo

import "fmt"

// Network is the router-level simulation topology: a PoP-level backbone in
// which every PoP is the root of a complete k-ary access tree of the given
// depth (paper §4.1). Requests arrive at tree leaves; PoP roots double as
// origin servers for the objects they own.
//
// Node addressing: every router has a NodeID = pop*TreeSize() + local, where
// local is the heap index of the node within its access tree (local 0 is the
// tree root, which *is* the PoP's core router). Heap indexing makes parent,
// child, depth and LCA computations pure arithmetic with no allocation.
type Network struct {
	Topo  *Topology
	Arity int
	Depth int

	paths      *Paths
	coreLink   [][]int32 // coreLink[p][q] = dense backbone link index, -1 where not adjacent
	treeSize   int32
	leafStart  int32
	leaves     int32
	levelStart []int32 // levelStart[d] = local index of first node at depth d
	depthOf    []int8  // local index -> depth
}

// NodeID identifies a router in a Network.
type NodeID int32

// NewNetwork builds the router-level network for a validated topology.
// It panics if arity < 2, depth < 1, or the topology fails validation, since
// these are construction-time programmer errors.
func NewNetwork(t *Topology, arity, depth int) *Network {
	if arity < 2 {
		panic("topo: access tree arity must be >= 2")
	}
	if depth < 1 {
		panic("topo: access tree depth must be >= 1")
	}
	if err := t.Validate(); err != nil {
		panic(err)
	}
	levelStart := make([]int32, depth+2)
	size := int32(0)
	width := int32(1)
	for d := 0; d <= depth; d++ {
		levelStart[d] = size
		size += width
		width *= int32(arity)
	}
	levelStart[depth+1] = size
	depthOf := make([]int8, size)
	for d := 0; d <= depth; d++ {
		for i := levelStart[d]; i < levelStart[d+1]; i++ {
			depthOf[i] = int8(d)
		}
	}
	pops := t.Graph.N()
	flat := make([]int32, pops*pops)
	for i := range flat {
		flat[i] = -1
	}
	coreLink := make([][]int32, pops)
	for p := range coreLink {
		coreLink[p] = flat[p*pops : (p+1)*pops]
	}
	for i, e := range t.Graph.Edges() {
		coreLink[e[0]][e[1]] = int32(i)
		coreLink[e[1]][e[0]] = int32(i)
	}
	return &Network{
		Topo:       t,
		Arity:      arity,
		Depth:      depth,
		paths:      t.Graph.AllPairsShortestPaths(),
		coreLink:   coreLink,
		treeSize:   size,
		leafStart:  levelStart[depth],
		leaves:     size - levelStart[depth],
		levelStart: levelStart,
		depthOf:    depthOf,
	}
}

// PoPs returns the number of PoPs.
func (n *Network) PoPs() int { return n.Topo.Graph.N() }

// TreeSize returns the number of routers per access tree, root included.
func (n *Network) TreeSize() int { return int(n.treeSize) }

// LeavesPerTree returns the number of leaves per access tree.
func (n *Network) LeavesPerTree() int { return int(n.leaves) }

// NodeCount returns the total number of routers (PoP roots included once).
func (n *Network) NodeCount() int { return n.PoPs() * int(n.treeSize) }

// Node returns the NodeID for a (pop, local) pair.
func (n *Network) Node(pop int, local int32) NodeID {
	return NodeID(int32(pop)*n.treeSize + local)
}

// Split decomposes a NodeID into its (pop, local) pair.
func (n *Network) Split(id NodeID) (pop int, local int32) {
	return int(int32(id) / n.treeSize), int32(id) % n.treeSize
}

// Leaf returns the NodeID of the i-th leaf (0-based) of pop's access tree.
func (n *Network) Leaf(pop, i int) NodeID {
	if i < 0 || int32(i) >= n.leaves {
		panic(fmt.Sprintf("topo: leaf index %d out of range (leaves per tree: %d)", i, n.leaves))
	}
	return n.Node(pop, n.leafStart+int32(i))
}

// LeafStart returns the local index of the first leaf.
func (n *Network) LeafStart() int32 { return n.leafStart }

// Parent returns the local index of local's parent; the root has no parent
// and Parent(0) is -1.
func (n *Network) Parent(local int32) int32 {
	if local == 0 {
		return -1
	}
	return (local - 1) / int32(n.Arity)
}

// FirstChild returns the local index of local's first child, or -1 for
// leaves.
func (n *Network) FirstChild(local int32) int32 {
	c := local*int32(n.Arity) + 1
	if c >= n.treeSize {
		return -1
	}
	return c
}

// DepthOf returns the tree depth of a local index (root is 0).
func (n *Network) DepthOf(local int32) int { return int(n.depthOf[local]) }

// LevelStart returns the local index of the first node at depth d.
func (n *Network) LevelStart(d int) int32 { return n.levelStart[d] }

// LevelEnd returns one past the local index of the last node at depth d.
func (n *Network) LevelEnd(d int) int32 { return n.levelStart[d+1] }

// IsLeaf reports whether the local index is a leaf.
func (n *Network) IsLeaf(local int32) bool { return local >= n.leafStart }

// Siblings appends to dst the local indices of local's siblings (same
// parent, excluding local itself) and returns the extended slice. The root
// has no siblings.
func (n *Network) Siblings(dst []int32, local int32) []int32 {
	if local == 0 {
		return dst
	}
	parent := n.Parent(local)
	first := parent*int32(n.Arity) + 1
	for c := first; c < first+int32(n.Arity); c++ {
		if c != local && c < n.treeSize {
			dst = append(dst, c)
		}
	}
	return dst
}

// SameTreeDist returns the hop distance between two local indices within one
// access tree, via the lowest common ancestor.
func (n *Network) SameTreeDist(a, b int32) int {
	d := 0
	for a != b {
		da, db := n.depthOf[a], n.depthOf[b]
		switch {
		case da > db:
			a = n.Parent(a)
		case db > da:
			b = n.Parent(b)
		default:
			a = n.Parent(a)
			b = n.Parent(b)
			d++ // the two parent steps collapse below; count both
		}
		d++
	}
	return d
}

// CoreDist returns the hop distance between two PoPs across the backbone.
func (n *Network) CoreDist(p, q int) int { return n.paths.Dist(p, q) }

// CoreNextHop returns the next PoP on a shortest backbone path from p to q.
func (n *Network) CoreNextHop(p, q int) int { return n.paths.NextHop(p, q) }

// CorePath returns the PoP sequence of a shortest backbone path.
func (n *Network) CorePath(p, q int) []int32 { return n.paths.Path(p, q) }

// Dist returns the hop distance between two arbitrary routers: tree distance
// when they share a tree, otherwise up to the local root, across the core,
// and down the remote tree.
func (n *Network) Dist(a, b NodeID) int {
	ap, al := n.Split(a)
	bp, bl := n.Split(b)
	if ap == bp {
		return n.SameTreeDist(al, bl)
	}
	return int(n.depthOf[al]) + n.CoreDist(ap, bp) + int(n.depthOf[bl])
}

// TreeLinks returns the number of access-tree links in the whole network
// (one per non-root tree node).
func (n *Network) TreeLinks() int { return n.PoPs() * (int(n.treeSize) - 1) }

// TreeLinkIndex returns the dense index of the link from (pop, local) to its
// parent, for congestion accounting. local must not be the root.
func (n *Network) TreeLinkIndex(pop int, local int32) int {
	return pop*(int(n.treeSize)-1) + int(local) - 1
}

// CoreLinks returns the number of backbone links.
func (n *Network) CoreLinks() int { return n.Topo.Graph.EdgeCount() }

// CoreLinkIndex returns the dense index of the backbone link {p, q}.
// It panics if the link does not exist, which indicates a routing bug.
func (n *Network) CoreLinkIndex(p, q int) int {
	i := n.coreLink[p][q]
	if i < 0 {
		panic(fmt.Sprintf("topo: no core link between PoPs %d and %d", p, q))
	}
	return int(i)
}
