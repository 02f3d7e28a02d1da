package labeling

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pathsep/internal/graph"
	"pathsep/internal/shortest"
)

func TestExactOnPath(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.Path(17, graph.UniformWeights(1, 3), rng)
	l, err := BuildTree(g)
	if err != nil {
		t.Fatal(err)
	}
	tr := shortest.Dijkstra(g, 0)
	for v := 0; v < g.N(); v++ {
		if math.Abs(l.Query(0, v)-tr.Dist[v]) > 1e-9 {
			t.Fatalf("Query(0,%d) = %v, want %v", v, l.Query(0, v), tr.Dist[v])
		}
	}
}

func TestExactAllPairsRandomTrees(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomTree(60, graph.UniformWeights(0.5, 5), rng)
		l, err := BuildTree(g)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.N(); u += 4 {
			tr := shortest.Dijkstra(g, u)
			for v := 0; v < g.N(); v++ {
				if math.Abs(l.Query(u, v)-tr.Dist[v]) > 1e-9 {
					t.Fatalf("seed %d: Query(%d,%d) = %v, want %v", seed, u, v, l.Query(u, v), tr.Dist[v])
				}
			}
		}
	}
}

func TestLabelSizeLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{64, 512, 4096} {
		g := graph.RandomTree(n, graph.UnitWeights(), rng)
		l, err := BuildTree(g)
		if err != nil {
			t.Fatal(err)
		}
		bound := int(math.Log2(float64(n))) + 2
		if got := l.MaxLabelSize(); got > bound {
			t.Errorf("n=%d: max label %d > log bound %d", n, got, bound)
		}
		if l.Depth() >= l.MaxLabelSize() {
			// depth is max entries - 1.
			t.Errorf("n=%d: depth %d vs max label %d", n, l.Depth(), l.MaxLabelSize())
		}
	}
}

func TestCaterpillarAndStar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range []*graph.Graph{
		graph.Star(50, graph.UniformWeights(1, 2), rng),
		graph.Caterpillar(10, 4, graph.UniformWeights(1, 2), rng),
		graph.BinaryTree(63, graph.UnitWeights(), rng),
	} {
		l, err := BuildTree(g)
		if err != nil {
			t.Fatal(err)
		}
		tr := shortest.Dijkstra(g, 0)
		for v := 0; v < g.N(); v++ {
			if math.Abs(l.Query(0, v)-tr.Dist[v]) > 1e-9 {
				t.Fatalf("Query(0,%d) mismatch", v)
			}
		}
	}
}

func TestRejectsNonTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := BuildTree(graph.Cycle(5, graph.UnitWeights(), rng)); err == nil {
		t.Fatal("cycle accepted")
	}
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1) // forest, not tree
	// m = n-2: not a tree by edge count.
	if _, err := BuildTree(b.Build()); err == nil {
		t.Fatal("forest accepted")
	}
	if _, err := BuildTree(graph.New(0)); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestDistributedQueryMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomTree(40, graph.UniformWeights(1, 4), rng)
	l, _ := BuildTree(g)
	for u := 0; u < 40; u += 3 {
		for v := 0; v < 40; v += 7 {
			got := QueryTreeLabels(&l.Labels[u], &l.Labels[v])
			want := l.Query(u, v)
			if got != want {
				t.Fatalf("(%d,%d): %v != %v", u, v, got, want)
			}
		}
	}
}

func TestQuickExactness(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%50 + 2
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomTree(n, graph.UniformWeights(0.5, 3), rng)
		l, err := BuildTree(g)
		if err != nil {
			return false
		}
		u := rng.Intn(n)
		tr := shortest.Dijkstra(g, u)
		for v := 0; v < n; v++ {
			if math.Abs(l.Query(u, v)-tr.Dist[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQueryPathExact checks witness-path reporting on several tree
// families: for every sampled pair the reported distance is bit-identical
// to Query, the path is a real tree walk from u to v, and its edge-weight
// sum matches the exact distance.
func TestQueryPathExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for name, g := range map[string]*graph.Graph{
		"path":   graph.Path(21, graph.UniformWeights(1, 3), rng),
		"random": graph.RandomTree(70, graph.UniformWeights(0.5, 5), rng),
		"star":   graph.Star(30, graph.UniformWeights(1, 2), rng),
		"binary": graph.BinaryTree(63, graph.UnitWeights(), rng),
	} {
		l, err := BuildTree(g)
		if err != nil {
			t.Fatal(err)
		}
		n := g.N()
		var buf []int32
		for u := 0; u < n; u += 3 {
			for v := 0; v < n; v += 5 {
				var dist float64
				dist, buf, err = l.QueryPath(u, v, buf)
				if err != nil {
					t.Fatalf("%s: QueryPath(%d,%d): %v", name, u, v, err)
				}
				if want := l.Query(u, v); math.Float64bits(dist) != math.Float64bits(want) {
					t.Fatalf("%s: QueryPath(%d,%d) dist %v, Query %v", name, u, v, dist, want)
				}
				if len(buf) == 0 || int(buf[0]) != u || int(buf[len(buf)-1]) != v {
					t.Fatalf("%s: path(%d,%d) endpoints wrong: %v", name, u, v, buf)
				}
				w := 0.0
				for i := 1; i < len(buf); i++ {
					ew, ok := g.EdgeWeight(int(buf[i-1]), int(buf[i]))
					if !ok {
						t.Fatalf("%s: path(%d,%d) uses non-edge %d-%d: %v", name, u, v, buf[i-1], buf[i], buf)
					}
					w += ew
				}
				if math.Abs(w-dist) > 1e-9 {
					t.Fatalf("%s: path(%d,%d) weighs %v, reported %v (%v)", name, u, v, w, dist, buf)
				}
			}
		}
		// Out-of-range and self pairs follow the Query conventions.
		if d, p, err := l.QueryPath(-1, 2, buf); err != nil || !math.IsInf(d, 1) || len(p) != 0 {
			t.Fatalf("%s: out-of-range: %v %v %v", name, d, p, err)
		}
		if d, p, err := l.QueryPath(4, 4, buf); err != nil || math.Float64bits(d) != 0 || len(p) != 1 || p[0] != 4 {
			t.Fatalf("%s: self pair: %v %v %v", name, d, p, err)
		}
	}
}

// TestQueryPathRejectsCorruptHops pins the step budget: a hand-built
// labeling whose hop links cycle reports an error instead of spinning.
func TestQueryPathRejectsCorruptHops(t *testing.T) {
	bad := &TreeLabeling{
		Labels: []TreeLabel{
			{Entries: []Entry{{Centroid: 0, Hop: 1, Dist: 1}}},
			{Entries: []Entry{{Centroid: 0, Hop: 0, Dist: 1}}},
		},
		n: 2,
	}
	if _, _, err := bad.QueryPath(0, 1, nil); err == nil {
		t.Fatal("cyclic hop links accepted")
	}
}

// TestTreeLabelingQueryBounds is the bounds-hardening regression:
// Query and QueryPath must reject out-of-range vertex ids — +Inf and an
// empty path, never a panic — including extreme ids whose offsets would
// wrap.
func TestTreeLabelingQueryBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l, err := BuildTree(graph.RandomTree(25, graph.UniformWeights(1, 4), rng))
	if err != nil {
		t.Fatal(err)
	}
	n := len(l.Labels)
	var buf []int32
	for _, pair := range [][2]int{
		{-1, 0}, {0, -1}, {n, 0}, {0, n}, {n + 7, -3},
		{math.MinInt, 0}, {0, math.MaxInt}, {math.MaxInt, math.MinInt},
	} {
		if d := l.Query(pair[0], pair[1]); !math.IsInf(d, 1) {
			t.Fatalf("Query(%d,%d) = %v, want +Inf", pair[0], pair[1], d)
		}
		d, p, err := l.QueryPath(pair[0], pair[1], buf)
		if err != nil || !math.IsInf(d, 1) || len(p) != 0 {
			t.Fatalf("QueryPath(%d,%d) = %v %v %v, want +Inf, empty, nil", pair[0], pair[1], d, p, err)
		}
		buf = p
	}
}
