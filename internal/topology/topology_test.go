package topology

import (
	"testing"
	"testing/quick"

	"repro/internal/crypto"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate, reversed
	g.AddEdge(2, 2) // self-loop ignored
	g.AddEdge(0, 9) // out of range ignored
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge (0,1) missing")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("expected 1 edge, got %d", g.NumEdges())
	}
	if g.HasEdge(2, 2) || g.HasEdge(0, 9) {
		t.Fatal("invalid edges were stored")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(5)
	g.AddEdge(2, 4)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	g.AddEdge(2, 1)
	nb := g.Neighbors(2)
	want := []NodeID{0, 1, 3, 4}
	if len(nb) != len(want) {
		t.Fatalf("neighbors = %v, want %v", nb, want)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("neighbors = %v, want %v", nb, want)
		}
	}
	if g.Degree(2) != 4 || g.Degree(0) != 1 {
		t.Fatal("degree mismatch")
	}
}

func TestLineDepths(t *testing.T) {
	g := Line(5)
	d := g.Depths(0)
	for i := 0; i < 5; i++ {
		if d[i] != i {
			t.Fatalf("depth of node %d = %d, want %d", i, d[i], i)
		}
	}
	if g.Depth(0) != 4 {
		t.Fatalf("line depth = %d, want 4", g.Depth(0))
	}
	if !g.Connected(0) {
		t.Fatal("line should be connected")
	}
}

func TestRingStarGrid(t *testing.T) {
	if got := Ring(6).Depth(0); got != 3 {
		t.Fatalf("ring(6) depth = %d, want 3", got)
	}
	if got := Star(10).Depth(0); got != 1 {
		t.Fatalf("star depth = %d, want 1", got)
	}
	g := Grid(3, 4)
	if g.NumNodes() != 12 {
		t.Fatalf("grid nodes = %d", g.NumNodes())
	}
	if got := g.Depth(0); got != 2+3 {
		t.Fatalf("grid(3,4) depth = %d, want 5", got)
	}
	if !g.Connected(0) {
		t.Fatal("grid should be connected")
	}
}

func TestDepthsUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	d := g.Depths(0)
	if d[2] != -1 {
		t.Fatalf("unreachable node depth = %d, want -1", d[2])
	}
	if g.Connected(0) {
		t.Fatal("graph with stranded node reported connected")
	}
}

func TestWithoutExcludesMalicious(t *testing.T) {
	// 0-1-2 and 0-3-2: excluding node 1 must leave 2 reachable via 3.
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 3)
	g.AddEdge(3, 2)
	mal := map[NodeID]bool{1: true}
	h := g.Without(mal)
	if h.HasEdge(0, 1) || h.HasEdge(1, 2) {
		t.Fatal("edges incident to excluded node survived")
	}
	if d := h.Depths(0)[2]; d != 2 {
		t.Fatalf("honest depth of node 2 = %d, want 2", d)
	}
	if got := g.HonestDepth(0, mal); got != 2 {
		t.Fatalf("honest depth = %d, want 2", got)
	}
	if !g.ConnectedExcluding(0, mal) {
		t.Fatal("honest component should be connected")
	}
}

func TestConnectedExcludingDetectsPartition(t *testing.T) {
	// 0-1-2: node 1 malicious partitions node 2 away.
	g := Line(3)
	if g.ConnectedExcluding(0, map[NodeID]bool{1: true}) {
		t.Fatal("partition not detected")
	}
}

func TestCloneIndependent(t *testing.T) {
	g := Line(3)
	c := g.Clone()
	c.AddEdge(0, 2)
	if g.HasEdge(0, 2) {
		t.Fatal("clone mutation leaked into original")
	}
	if !c.HasEdge(0, 1) {
		t.Fatal("clone lost edges")
	}
}

func TestSubgraphFilter(t *testing.T) {
	g := Grid(2, 2)
	sub := g.Subgraph(func(a, b NodeID) bool { return a != 0 && b != 0 })
	if sub.Degree(0) != 0 {
		t.Fatal("subgraph kept filtered edges")
	}
	if sub.NumNodes() != g.NumNodes() {
		t.Fatal("subgraph changed node count")
	}
}

func TestEdgesSortedAndComplete(t *testing.T) {
	g := Grid(2, 3)
	edges := g.Edges()
	if len(edges) != g.NumEdges() {
		t.Fatalf("Edges() returned %d, NumEdges() = %d", len(edges), g.NumEdges())
	}
	for i := 1; i < len(edges); i++ {
		a, b := edges[i-1], edges[i]
		if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
			t.Fatalf("edges not sorted: %v before %v", a, b)
		}
	}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Fatalf("edge not normalized: %v", e)
		}
	}
}

func TestRandomGeometricConnectedAndDeterministic(t *testing.T) {
	g1, pts1 := RandomGeometric(200, 0.12, crypto.NewStreamFromSeed(11))
	g2, pts2 := RandomGeometric(200, 0.12, crypto.NewStreamFromSeed(11))
	if !g1.Connected(0) {
		t.Fatal("random geometric graph not stitched connected")
	}
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("nondeterministic generation: %d vs %d edges", g1.NumEdges(), g2.NumEdges())
	}
	for i := range pts1 {
		if pts1[i] != pts2[i] {
			t.Fatal("nondeterministic coordinates")
		}
	}
	if pts1[0] != [2]float64{0, 0} {
		t.Fatal("base station not pinned at origin")
	}
}

func TestRandomGeometricSparseStillConnected(t *testing.T) {
	// Tiny radius forces stitching of many components.
	g, _ := RandomGeometric(100, 0.01, crypto.NewStreamFromSeed(5))
	if !g.Connected(0) {
		t.Fatal("stitching failed for sparse deployment")
	}
}

func TestDepthPropertyTriangleInequality(t *testing.T) {
	// Property: adding an edge never increases any BFS depth.
	f := func(seed uint64) bool {
		rng := crypto.NewStreamFromSeed(seed)
		g, _ := RandomGeometric(60, 0.15, rng)
		before := g.Depths(0)
		a := NodeID(rng.Intn(60))
		b := NodeID(rng.Intn(60))
		g.AddEdge(a, b)
		after := g.Depths(0)
		for i := range before {
			if before[i] != -1 && after[i] > before[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDepthPropertyNeighborsDifferByOne(t *testing.T) {
	// Property: BFS depths of adjacent nodes differ by at most 1.
	f := func(seed uint64) bool {
		g, _ := RandomGeometric(80, 0.2, crypto.NewStreamFromSeed(seed))
		d := g.Depths(0)
		for _, e := range g.Edges() {
			da, db := d[e[0]], d[e[1]]
			if da == -1 || db == -1 {
				continue
			}
			if da-db > 1 || db-da > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestAdjacencyMatchesReferenceEdgeSet(t *testing.T) {
	// Random multigraph insertions (duplicates, both orientations,
	// self-loops) against a plain edge-set reference.
	for seed := uint64(1); seed <= 20; seed++ {
		rng := crypto.NewStreamFromSeed(seed)
		n := 1 + rng.Intn(40)
		g := New(n)
		ref := map[[2]NodeID]bool{}
		for k := rng.Intn(4 * n); k > 0; k-- {
			a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			g.AddEdge(a, b)
			if a != b {
				ref[[2]NodeID{min(a, b), max(a, b)}] = true
			}
		}
		checkAgainst(t, g, ref, n)

		c := g.Clone()
		checkAgainst(t, c, ref, n)
		if n > 1 {
			c.AddEdge(0, NodeID(n-1)) // a clone is independent
			if !ref[[2]NodeID{0, NodeID(n - 1)}] && g.HasEdge(0, NodeID(n-1)) {
				t.Fatalf("seed %d: mutating the clone changed the original", seed)
			}
		}

		keep := func(a, b NodeID) bool { return (a+2*b)%3 != 0 }
		sub := map[[2]NodeID]bool{}
		for e := range ref {
			if keep(e[0], e[1]) {
				sub[e] = true
			}
		}
		checkAgainst(t, g.Subgraph(keep), sub, n)
	}
}

func checkAgainst(t *testing.T, g *Graph, ref map[[2]NodeID]bool, n int) {
	t.Helper()
	if g.NumEdges() != len(ref) {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), len(ref))
	}
	for a := NodeID(-1); a <= NodeID(n); a++ {
		for b := NodeID(-1); b <= NodeID(n); b++ {
			want := ref[[2]NodeID{min(a, b), max(a, b)}]
			if g.HasEdge(a, b) != want {
				t.Fatalf("HasEdge(%d, %d) = %v, want %v", a, b, !want, want)
			}
		}
	}
	edges := g.Edges()
	if len(edges) != len(ref) {
		t.Fatalf("Edges has %d entries, want %d", len(edges), len(ref))
	}
	for i, e := range edges {
		if !ref[e] || e[0] >= e[1] {
			t.Fatalf("Edges()[%d] = %v is not a reference edge with a < b", i, e)
		}
		if i > 0 && (edges[i-1][0] > e[0] || (edges[i-1][0] == e[0] && edges[i-1][1] >= e[1])) {
			t.Fatalf("Edges not in sorted order at %d: %v then %v", i, edges[i-1], e)
		}
	}
	for id := 0; id < n; id++ {
		nbs := g.Neighbors(NodeID(id))
		for i := 1; i < len(nbs); i++ {
			if nbs[i-1] >= nbs[i] {
				t.Fatalf("neighbors of %d not strictly sorted: %v", id, nbs)
			}
		}
	}
}
