package oracle

import (
	"math"
	"math/rand"
	"testing"

	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/shortest"
)

// auditStretch freezes o and checks every pair (u,v): Query >= true
// distance, and in exact mode Query <= (1+eps) * true distance.
func auditStretch(t *testing.T, g *graph.Graph, o *Oracle, eps float64, guarantee bool) (worst float64) {
	t.Helper()
	fl := mustFreeze(t, o)
	for u := 0; u < g.N(); u++ {
		tr := shortest.Dijkstra(g, u)
		for v := 0; v < g.N(); v++ {
			if u == v {
				if got := fl.Query(u, v); got != 0 {
					t.Fatalf("Query(%d,%d) = %v, want 0", u, v, got)
				}
				continue
			}
			d := tr.Dist[v]
			est := fl.Query(u, v)
			if math.IsInf(d, 1) {
				if !math.IsInf(est, 1) {
					t.Fatalf("Query(%d,%d) = %v for disconnected pair", u, v, est)
				}
				continue
			}
			if est < d-1e-9 {
				t.Fatalf("Query(%d,%d) = %v < true %v (underestimate)", u, v, est, d)
			}
			if ratio := est / d; ratio > worst {
				worst = ratio
			}
			if guarantee && est > (1+eps)*d+1e-9 {
				t.Fatalf("Query(%d,%d) = %v > (1+%v)*%v (stretch %v)", u, v, est, eps, d, est/d)
			}
		}
	}
	return worst
}

func buildFor(t *testing.T, g *graph.Graph, rot *embed.Rotation, opt Options) *Oracle {
	t.Helper()
	tree, err := core.Decompose(g, core.Options{Strategy: core.Auto{}, Rot: rot})
	if err != nil {
		t.Fatal(err)
	}
	o, err := Build(tree, opt)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestExactModeGridGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := embed.Grid(7, 7, graph.UniformWeights(1, 3), rng)
	for _, eps := range []float64{0.5, 0.25, 0.1} {
		o := buildFor(t, r.G, r, Options{Epsilon: eps, Mode: CoverExact})
		auditStretch(t, r.G, o, eps, true)
	}
}

func TestExactModeTree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomTree(80, graph.UniformWeights(1, 5), rng)
	o := buildFor(t, g, nil, Options{Epsilon: 0.2, Mode: CoverExact})
	worst := auditStretch(t, g, o, 0.2, true)
	// Trees: estimates should actually be exact (every path crosses the
	// centroid separator at the crossing vertex itself).
	if worst > 1+1e-9 {
		t.Errorf("tree oracle worst stretch %v, want exact", worst)
	}
}

func TestExactModeKTree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.KTree(60, 2, graph.UniformWeights(1, 4), rng)
	o := buildFor(t, g, nil, Options{Epsilon: 0.3, Mode: CoverExact})
	auditStretch(t, g, o, 0.3, true)
}

func TestExactModeApollonian(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := embed.Apollonian(70, graph.UniformWeights(1, 3), rng)
	o := buildFor(t, r.G, r, Options{Epsilon: 0.25, Mode: CoverExact})
	auditStretch(t, r.G, o, 0.25, true)
}

func TestExactModeRandomGraphs(t *testing.T) {
	// Greedy strategy on arbitrary graphs: guarantee still holds because
	// the separator satisfies Definition 1 regardless of k.
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.ConnectedGNM(40, 90, graph.UniformWeights(0.5, 2), rng)
		o := buildFor(t, g, nil, Options{Epsilon: 0.4, Mode: CoverExact})
		auditStretch(t, g, o, 0.4, true)
	}
}

func TestPortalModeNeverUnderestimates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := embed.Grid(8, 8, graph.UniformWeights(1, 2), rng)
	o := buildFor(t, r.G, r, Options{Epsilon: 0.25, Mode: CoverPortal})
	worst := auditStretch(t, r.G, o, 0.25, false)
	// Closest-attachment entries cap the stretch at 3 even in portal mode.
	if worst > 3+1e-9 {
		t.Errorf("portal mode worst stretch %v > 3", worst)
	}
}

func TestPortalModeMorePortalsLowerStretch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	r := embed.Grid(9, 9, graph.UniformWeights(1, 2), rng)
	tree, err := core.Decompose(r.G, core.Options{Strategy: core.Auto{}, Rot: r})
	if err != nil {
		t.Fatal(err)
	}
	measure := func(p int) float64 {
		o, err := Build(tree, Options{Epsilon: 0.25, Mode: CoverPortal, PortalsPerPath: p})
		if err != nil {
			t.Fatal(err)
		}
		return auditStretch(t, r.G, o, 0, false)
	}
	few := measure(2)
	many := measure(16)
	if many > few+1e-9 {
		t.Errorf("more portals should not hurt: 2 portals %v, 16 portals %v", few, many)
	}
}

func TestDisconnectedPairs(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	g := b.Build()
	tree, err := core.Decompose(g, core.Options{Strategy: core.Greedy{}})
	if err != nil {
		t.Fatal(err)
	}
	o, err := Build(tree, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	fl := mustFreeze(t, o)
	if got := fl.Query(0, 5); !math.IsInf(got, 1) {
		t.Fatalf("Query across components = %v, want +Inf", got)
	}
	if got := fl.Query(0, 2); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Query(0,2) = %v, want 2", got)
	}
}

func TestLabelSizesLogarithmic(t *testing.T) {
	// Label portal counts should grow roughly like log n for grids, not n.
	rng := rand.New(rand.NewSource(7))
	sizes := []int{16, 64, 256}
	var maxPortals []int
	for _, n := range sizes {
		side := isqrtTest(n)
		r := embed.Grid(side, side, graph.UnitWeights(), rng)
		o := buildFor(t, r.G, r, Options{Epsilon: 0.5, Mode: CoverExact})
		maxPortals = append(maxPortals, o.MaxLabelPortals())
	}
	// 16x growth in n should produce far less than 16x growth in label size.
	if maxPortals[2] > 8*maxPortals[0] {
		t.Errorf("label growth not logarithmic: %v", maxPortals)
	}
}

func isqrtTest(n int) int {
	x := 1
	for x*x < n {
		x++
	}
	return x
}

func TestInvalidEpsilon(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights(), rand.New(rand.NewSource(1)))
	tree, _ := core.Decompose(g, core.Options{})
	if _, err := Build(tree, Options{Epsilon: 0}); err == nil {
		t.Fatal("epsilon 0 accepted")
	}
	if _, err := Build(tree, Options{Epsilon: -1}); err == nil {
		t.Fatal("negative epsilon accepted")
	}
}

func TestPairMin(t *testing.T) {
	a := []Portal{{Pos: 0, Dist: 5}, {Pos: 10, Dist: 1}}
	b := []Portal{{Pos: 2, Dist: 3}, {Pos: 9, Dist: 4}}
	// Candidates: 5+2+3=10, 5+9+4=18, 1+8+3=12, 1+1+4=6 -> 6.
	if got := pairMin(a, b); got != 6 {
		t.Fatalf("pairMin = %v, want 6", got)
	}
	if got := pairMin(nil, b); !math.IsInf(got, 1) {
		t.Fatalf("pairMin empty = %v", got)
	}
}

func TestPairMinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		na, nb := 1+rng.Intn(6), 1+rng.Intn(6)
		mk := func(n int) []Portal {
			ps := make([]Portal, n)
			pos := 0.0
			for i := range ps {
				pos += rng.Float64() * 3
				ps[i] = Portal{Pos: pos, Dist: rng.Float64() * 10}
			}
			return ps
		}
		a, b := mk(na), mk(nb)
		want := math.Inf(1)
		for _, p := range a {
			for _, q := range b {
				if est := p.Dist + math.Abs(p.Pos-q.Pos) + q.Dist; est < want {
					want = est
				}
			}
		}
		if got := pairMin(a, b); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: pairMin = %v, brute force %v", trial, got, want)
		}
	}
}

func TestSpaceAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := embed.Grid(5, 5, graph.UnitWeights(), rng)
	o := buildFor(t, r.G, r, Options{Epsilon: 0.5})
	total := 0
	for v := 0; v < r.G.N(); v++ {
		total += o.Labels[v].NumPortals()
	}
	if total != o.SpacePortals() {
		t.Fatalf("SpacePortals %d != sum %d", o.SpacePortals(), total)
	}
	if o.MaxLabelPortals() == 0 || o.MaxLabelPortals() > total {
		t.Fatalf("MaxLabelPortals %d", o.MaxLabelPortals())
	}
}

func TestAuditAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	r := embed.Grid(6, 6, graph.UniformWeights(1, 3), rng)
	o := buildFor(t, r.G, r, Options{Epsilon: 0.25, Mode: CoverExact})
	res := mustFreeze(t, o).Audit(r.G, 200, rng.Intn)
	if res.Pairs == 0 {
		t.Fatal("no pairs audited")
	}
	if res.Underestimates != 0 {
		t.Fatalf("%d underestimates", res.Underestimates)
	}
	if res.MaxStretch > 1.25+1e-9 || res.MeanStretch > res.MaxStretch {
		t.Fatalf("audit: %+v", res)
	}
}
