package exp

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"pathsep/internal/baseline"
	"pathsep/internal/core"
	"pathsep/internal/doubling"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/hardness"
	"pathsep/internal/oracle"
	"pathsep/internal/routing"
	"pathsep/internal/shortest"
	"pathsep/internal/smallworld"
)

// Config scales the experiments.
type Config struct {
	// Quick shrinks instance sizes for fast runs (tests, -quick flag).
	Quick bool
	// Seed drives all randomness.
	Seed int64
	// Workers bounds the construction worker pool (0 = GOMAXPROCS,
	// 1 = serial); results are identical for every value.
	Workers int
}

func (c Config) rng() *rand.Rand { return rand.New(rand.NewSource(c.Seed + 7)) }

func (c Config) pick(quick, full []int) []int {
	if c.Quick {
		return quick
	}
	return full
}

// sampledStretch compares oracle estimates with exact distances over
// sampled pairs, returning (max, mean) stretch.
func sampledStretch(g *graph.Graph, query func(u, v int) float64, pairs int, rng *rand.Rand) (float64, float64) {
	worst, sum, count := 1.0, 0.0, 0
	for i := 0; i < pairs; i++ {
		u := rng.Intn(g.N())
		tr := shortest.Dijkstra(g, u)
		v := rng.Intn(g.N())
		if u == v || math.IsInf(tr.Dist[v], 1) || core.IsZeroDist(tr.Dist[v]) {
			continue
		}
		ratio := query(u, v) / tr.Dist[v]
		if ratio > worst {
			worst = ratio
		}
		sum += ratio
		count++
	}
	if count == 0 {
		return 1, 1
	}
	return worst, sum / float64(count)
}

// E1Separator measures Definition 1 quantities per graph class: the max
// paths per separator (k), phases, decomposition depth vs ceil(log2 n),
// and construction time (Theorem 1's shape: k constant, depth log n).
func E1Separator(c Config) *Table {
	t := &Table{
		Title:   "E1 (Thm 1 / Def 1): separator size k and depth per graph class",
		Columns: []string{"class", "n", "m", "maxK", "maxPhases", "depth", "ceil(log2 n)", "build"},
	}
	rng := c.rng()
	sizes := c.pick([]int{64, 256}, []int{64, 256, 1024, 4096})
	type inst struct {
		name string
		g    *graph.Graph
		rot  *embed.Rotation
	}
	for _, n := range sizes {
		side := int(math.Sqrt(float64(n)))
		grid := embed.Grid(side, side, graph.UniformWeights(1, 4), rng)
		apo := embed.Apollonian(n, graph.UniformWeights(1, 4), rng)
		outer := embed.Outerplanar(n, n/2, graph.UniformWeights(1, 4), rng)
		instances := []inst{
			{"tree", graph.RandomTree(n, graph.UniformWeights(1, 4), rng), nil},
			{"grid", grid.G, grid},
			{"apollonian", apo.G, apo},
			{"outerplanar", outer.G, outer},
			{"3-tree", graph.KTree(n, 3, graph.UniformWeights(1, 4), rng), nil},
		}
		for _, in := range instances {
			start := time.Now()
			dec, err := core.Decompose(in.g, core.Options{Strategy: core.Auto{}, Rot: in.rot, Workers: c.Workers})
			if err != nil {
				t.AddRow(in.name, in.g.N(), in.g.M(), "ERR", err.Error())
				continue
			}
			maxPhases := 0
			for _, nd := range dec.Nodes {
				if nd.Sep != nil && nd.Sep.NumPhases() > maxPhases {
					maxPhases = nd.Sep.NumPhases()
				}
			}
			t.AddRow(in.name, in.g.N(), in.g.M(), dec.MaxK, maxPhases, dec.Depth,
				int(math.Ceil(math.Log2(float64(in.g.N())))), time.Since(start).Round(time.Millisecond))
		}
	}
	t.Notes = append(t.Notes,
		"Theorem 1 shape: maxK stays constant per class while n grows; depth tracks log2 n.")
	return t
}

// E2Treewidth measures Theorem 7: k-trees get strong separators of at
// most r+1 single-vertex paths; K_{r,n-r} needs at least r/2 paths.
func E2Treewidth(c Config) *Table {
	t := &Table{
		Title:   "E2 (Thm 7): treewidth-r strong separators and the K_{r,n-r} bound",
		Columns: []string{"graph", "r", "n", "paths", "bound", "holds"},
	}
	rng := c.rng()
	n := 200
	if c.Quick {
		n = 60
	}
	for _, r := range c.pick([]int{2, 4}, []int{1, 2, 4, 6, 8}) {
		g := graph.KTree(n, r, graph.UniformWeights(1, 3), rng)
		sep, err := (core.CenterBag{}).Separate(core.Input{G: g})
		if err != nil {
			t.AddRow("k-tree", r, n, "ERR", err.Error(), false)
			continue
		}
		t.AddRow("k-tree", r, n, sep.NumPaths(), r+1, sep.NumPaths() <= r+1 && sep.NumPhases() == 1)
	}
	for _, r := range c.pick([]int{4}, []int{4, 6, 10}) {
		g := graph.CompleteBipartite(r, n-r, graph.UnitWeights(), rng)
		k, err := hardness.MeasureGreedyK(g)
		if err != nil {
			t.AddRow("K_{r,n-r}", r, n, "ERR", err.Error(), false)
			continue
		}
		lb := hardness.BipartiteStrongLB(r)
		t.AddRow("K_{r,n-r}", r, n, k, lb, k >= lb)
	}
	t.Notes = append(t.Notes,
		"k-tree rows: a single phase of <= r+1 one-vertex paths (strong separator).",
		"K_{r,n-r} rows: measured paths vs the analytic >= r/2 lower bound.")
	return t
}

// E3StrongLB measures Theorem 6(3): the mesh+universal family needs
// Omega(sqrt n) STRONG paths (analytic t/3), while phased separators use
// far fewer; tiny instances are verified exhaustively.
func E3StrongLB(c Config) *Table {
	t := &Table{
		Title:   "E3 (Thm 6.3): mesh+universal strong lower bound vs phased k",
		Columns: []string{"t", "n", "strongLB(t/3)", "phasedK(cert)", "maxSPvertices"},
	}
	for _, tt := range c.pick([]int{3, 4, 6}, []int{3, 4, 6, 9, 12, 16, 24, 32}) {
		g := graph.MeshUniversal(tt)
		k, err := hardness.MeshUniversalPhasedK(tt)
		if err != nil {
			t.AddRow(tt, g.N(), hardness.MeshUniversalStrongLB(tt), "ERR", err.Error())
			continue
		}
		t.AddRow(tt, g.N(), hardness.MeshUniversalStrongLB(tt), k, hardness.MaxShortestPathVertices(g))
	}
	t.Notes = append(t.Notes,
		"strongLB grows like sqrt(n) (Theorem 6.3); the certified PHASED separator (universal vertex,",
		"then planar fundamental cycles) keeps k <= 5 at every size, realizing Theorem 1's contrast.",
		"maxSPvertices = 3: diameter 2, the heart of the counting argument.")
	return t
}

// E4Oracle measures Theorem 2: stretch <= 1+eps (exact mode), space,
// query time — against exact Dijkstra and Thorup–Zwick baselines.
func E4Oracle(c Config) *Table {
	t := &Table{
		Title:   "E4 (Thm 2): distance oracle stretch / space / query time vs baselines",
		Columns: []string{"graph", "n", "oracle", "eps", "space(entries)", "build", "query", "maxStretch", "meanStretch"},
	}
	rng := c.rng()
	sides := c.pick([]int{8}, []int{8, 16, 24})
	pairs := 300
	if c.Quick {
		pairs = 100
	}
	for _, side := range sides {
		grid := embed.Grid(side, side, graph.UniformWeights(1, 4), rng)
		g := grid.G
		dec, err := core.Decompose(g, core.Options{Strategy: core.Auto{}, Rot: grid, Workers: c.Workers})
		if err != nil {
			continue
		}
		for _, eps := range []float64{0.5, 0.1} {
			for _, mode := range []oracle.Mode{oracle.CoverExact, oracle.CoverPortal} {
				name := "pathsep-exact"
				if mode == oracle.CoverPortal {
					name = "pathsep-portal"
				}
				start := time.Now()
				o, err := oracle.Build(dec, oracle.Options{Epsilon: eps, Mode: mode, Workers: c.Workers})
				if err != nil {
					continue
				}
				build := time.Since(start)
				fl, err := o.Freeze()
				if err != nil {
					continue
				}
				qStart := time.Now()
				const qn = 20000
				for i := 0; i < qn; i++ {
					fl.Query(i%g.N(), (i*7)%g.N())
				}
				qTime := time.Since(qStart) / qn
				maxS, meanS := sampledStretch(g, fl.Query, pairs, rng)
				t.AddRow("grid", g.N(), name, eps, o.SpacePortals(), build.Round(time.Millisecond), qTime, maxS, meanS)
			}
		}
		// Baselines.
		ex := &baseline.Exact{G: g}
		qStart := time.Now()
		for i := 0; i < 50; i++ {
			ex.Query(i%g.N(), (i*7)%g.N())
		}
		t.AddRow("grid", g.N(), "dijkstra", "-", 0, time.Duration(0), time.Since(qStart)/50, 1.0, 1.0)
		tz, err := baseline.BuildTZ(g, 2, rng)
		if err == nil {
			maxS, meanS := sampledStretch(g, tz.Query, pairs, rng)
			t.AddRow("grid", g.N(), "thorup-zwick k=2", "-", tz.SpaceEntries(), time.Duration(0), time.Duration(0), maxS, meanS)
		}
		alt := baseline.BuildALT(g, 8, rng)
		maxS, meanS := sampledStretch(g, alt.Query, pairs, rng)
		t.AddRow("grid", g.N(), "alt-8", "-", alt.SpaceEntries(), time.Duration(0), time.Duration(0), maxS, meanS)
	}
	t.Notes = append(t.Notes,
		"pathsep-exact maxStretch must stay <= 1+eps (Theorem 2 guarantee).",
		"space grows ~ n log n for the path-separator oracle, n^1.5 for Thorup-Zwick k=2.")
	return t
}

// E5Labels measures Theorem 2's label sizes: portals and serialized bits
// per vertex, which should track (k/eps) * log n.
func E5Labels(c Config) *Table {
	t := &Table{
		Title:   "E5 (Thm 2): distance label sizes",
		Columns: []string{"graph", "n", "eps", "avgPortals", "maxPortals", "avgBits", "maxBits", "log2(n)"},
	}
	rng := c.rng()
	sides := c.pick([]int{8, 12}, []int{8, 16, 24, 32})
	for _, side := range sides {
		grid := embed.Grid(side, side, graph.UniformWeights(1, 4), rng)
		dec, err := core.Decompose(grid.G, core.Options{Strategy: core.Auto{}, Rot: grid, Workers: c.Workers})
		if err != nil {
			continue
		}
		for _, eps := range []float64{0.5, 0.1} {
			o, err := oracle.Build(dec, oracle.Options{Epsilon: eps, Mode: oracle.CoverExact, Workers: c.Workers})
			if err != nil {
				continue
			}
			totP, maxP, totB, maxB := 0, 0, 0, 0
			for v := range o.Labels {
				p := o.Labels[v].NumPortals()
				b := o.Labels[v].Bits()
				totP += p
				totB += b
				if p > maxP {
					maxP = p
				}
				if b > maxB {
					maxB = b
				}
			}
			n := grid.G.N()
			t.AddRow("grid", n, eps, float64(totP)/float64(n), maxP,
				float64(totB)/float64(n), maxB, math.Log2(float64(n)))
		}
	}
	t.Notes = append(t.Notes, "label words ~ O(k/eps * log n): ratio avgPortals/log2(n) stays ~flat in n, grows with 1/eps.")
	return t
}

// E6Routing measures the compact routing scheme: delivery, stretch,
// table and address sizes.
func E6Routing(c Config) *Table {
	t := &Table{
		Title:   "E6 (compact routing): delivery, stretch, table sizes",
		Columns: []string{"graph", "n", "portals", "delivered", "maxStretch", "meanStretch", "maxTable(w)", "maxAddr(w)", "maxAddrBits"},
	}
	rng := c.rng()
	sides := c.pick([]int{8}, []int{8, 16, 24})
	trials := 200
	if c.Quick {
		trials = 60
	}
	for _, side := range sides {
		grid := embed.Grid(side, side, graph.UniformWeights(1, 4), rng)
		g := grid.G
		dec, err := core.Decompose(g, core.Options{Strategy: core.Auto{}, Rot: grid, Workers: c.Workers})
		if err != nil {
			continue
		}
		for _, portals := range []int{4, 16} {
			r, err := routing.Build(dec, routing.Options{Epsilon: 0.25, PortalsPerPath: portals})
			if err != nil {
				continue
			}
			delivered := 0
			worst, sum, cnt := 1.0, 0.0, 0
			for i := 0; i < trials; i++ {
				s, tgt := rng.Intn(g.N()), rng.Intn(g.N())
				if s == tgt {
					delivered++
					continue
				}
				d := shortest.Dijkstra(g, s).Dist[tgt]
				path, ok := r.Route(s, tgt, 50*g.N())
				if !ok {
					continue
				}
				delivered++
				if w := r.RouteWeight(path); d > 0 {
					ratio := w / d
					if ratio > worst {
						worst = ratio
					}
					sum += ratio
					cnt++
				}
			}
			mean := 1.0
			if cnt > 0 {
				mean = sum / float64(cnt)
			}
			maxBits := 0
			for v := range r.Addrs {
				if b := r.Addrs[v].Bits(); b > maxBits {
					maxBits = b
				}
			}
			t.AddRow("grid", g.N(), portals, delivered*100/trials, worst, mean, r.MaxTableWords(), r.MaxAddrWords(), maxBits)
		}
	}
	t.Notes = append(t.Notes,
		"delivery is 100% by construction; stretch <= 3 guaranteed, approaching 1+eps as portals grow.")
	return t
}

// E7SmallWorld measures Theorem 3 and Corollary 1: mean greedy hops under
// the separator-landmark augmentation vs baselines, across n.
func E7SmallWorld(c Config) *Table {
	t := &Table{
		Title:   "E7 (Thm 3 / Cor 1): greedy routing hops under augmentation",
		Columns: []string{"graph", "n", "model", "meanHops", "maxHops", "k2log2n"},
	}
	rng := c.rng()
	sides := c.pick([]int{12}, []int{12, 20, 32})
	trials := 100
	if c.Quick {
		trials = 40
	}
	for _, side := range sides {
		grid := embed.Grid(side, side, graph.UniformWeights(1, 2), rng)
		g := grid.G
		dec, err := core.Decompose(g, core.Options{Strategy: core.Auto{}, Rot: grid, Workers: c.Workers})
		if err != nil {
			continue
		}
		n := g.N()
		k2l2 := float64(dec.MaxK*dec.MaxK) * math.Pow(math.Log2(float64(n)), 2)
		for _, model := range []smallworld.Model{smallworld.ModelPathSeparator, smallworld.ModelClosestSeparator, smallworld.ModelUniform, smallworld.ModelNone} {
			a, err := smallworld.Augment(dec, model, rng)
			if err != nil {
				continue
			}
			st := smallworld.Experiment(a, trials, rng, nil)
			t.AddRow("grid", n, model.String(), st.MeanHops, st.MaxHops, k2l2)
		}
		kl := smallworld.AugmentKleinbergGrid(g, side, side, rng)
		st := smallworld.Experiment(kl, trials, rng, nil)
		t.AddRow("grid", n, "kleinberg", st.MeanHops, st.MaxHops, k2l2)
	}
	// Aspect-ratio sweep: Theorem 3 carries a log^2 Δ factor; grids with
	// exponentially spread weights probe it at fixed n.
	if !c.Quick {
		side := 20
		for _, spread := range []float64{1, 4, 8} {
			grid := embed.Grid(side, side, graph.ExpWeights(spread), rng)
			dec, err := core.Decompose(grid.G, core.Options{Strategy: core.Auto{}, Rot: grid, Workers: c.Workers})
			if err != nil {
				continue
			}
			a, err := smallworld.Augment(dec, smallworld.ModelPathSeparator, rng)
			if err != nil {
				continue
			}
			st := smallworld.Experiment(a, trials, rng, nil)
			delta := shortest.AspectRatio(grid.G)
			t.AddRow("grid(log2Δ≈"+fmt.Sprintf("%.0f", math.Log2(delta))+")",
				grid.G.N(), "path-separator", st.MeanHops, st.MaxHops,
				float64(dec.MaxK*dec.MaxK)*math.Pow(math.Log2(float64(grid.G.N())), 2))
		}
	}

	// Corollary 1: treewidth-k graphs, single-vertex separator paths.
	nk := 400
	if c.Quick {
		nk = 120
	}
	g := graph.KTree(nk, 3, graph.UniformWeights(1, 2), rng)
	dec, err := core.Decompose(g, core.Options{Strategy: core.CenterBag{}, Workers: c.Workers})
	if err == nil {
		a, err := smallworld.Augment(dec, smallworld.ModelPathSeparator, rng)
		if err == nil {
			st := smallworld.Experiment(a, trials, rng, nil)
			t.AddRow("3-tree", nk, "path-separator", st.MeanHops, st.MaxHops,
				float64(dec.MaxK*dec.MaxK)*math.Pow(math.Log2(float64(nk)), 2))
		}
	}
	t.Notes = append(t.Notes,
		"Theorem 3 shape: separator models' meanHops grow poly-logarithmically (compare k2log2n), uniform/none grow polynomially.")
	return t
}

// E8Note2 measures Note 2: on unweighted graphs with separator diameter
// delta, the closest-separator variant takes O(log^2 n + delta log n).
func E8Note2(c Config) *Table {
	t := &Table{
		Title:   "E8 (Note 2): unweighted closest-separator variant",
		Columns: []string{"n", "delta(maxPathDiam)", "meanHops", "bound(log2n^2+delta*log2n)"},
	}
	rng := c.rng()
	trials := 80
	if c.Quick {
		trials = 30
	}
	for _, side := range c.pick([]int{12}, []int{12, 20, 28}) {
		grid := embed.Grid(side, side, graph.UnitWeights(), rng)
		dec, err := core.Decompose(grid.G, core.Options{Strategy: core.Auto{}, Rot: grid, Workers: c.Workers})
		if err != nil {
			continue
		}
		delta := 0.0
		for _, nd := range dec.Nodes {
			if nd.Sep == nil {
				continue
			}
			if d := nd.Sep.MaxPathDiameter(nd.Sub.G); d > delta {
				delta = d
			}
		}
		a, err := smallworld.Augment(dec, smallworld.ModelClosestSeparator, rng)
		if err != nil {
			continue
		}
		st := smallworld.Experiment(a, trials, rng, nil)
		n := float64(grid.G.N())
		bound := math.Pow(math.Log2(n), 2) + delta*math.Log2(n)
		t.AddRow(grid.G.N(), delta, st.MeanHops, bound)
	}
	return t
}

// E9Doubling measures Section 5.3 / Theorem 8: path separators degrade on
// 3-D meshes while the plane doubling separator keeps (1+eps) oracles.
func E9Doubling(c Config) *Table {
	t := &Table{
		Title:   "E9 (Thm 8 / §5.3): 3-D mesh — path separators vs doubling separators",
		Columns: []string{"mesh", "n", "greedyPathK", "planeSep", "oracleMaxStretch", "maxLabel", "build"},
	}
	rng := c.rng()
	dims := [][3]int{{4, 4, 4}, {6, 6, 6}, {8, 8, 8}}
	if c.Quick {
		dims = [][3]int{{4, 4, 4}}
	}
	pairs := 200
	if c.Quick {
		pairs = 80
	}
	var ns, ks []float64
	for _, d := range dims {
		g := graph.Mesh3D(d[0], d[1], d[2], graph.UnitWeights(), nil)
		k, err := hardness.MeasureGreedyK(g)
		if err != nil {
			k = -1
		} else {
			ns = append(ns, float64(g.N()))
			ks = append(ks, float64(k))
		}
		dt, err := doubling.DecomposeMesh3D(d[0], d[1], d[2])
		if err != nil {
			continue
		}
		start := time.Now()
		o, err := doubling.BuildOracle(dt, 0.2)
		if err != nil {
			continue
		}
		build := time.Since(start)
		maxS, _ := sampledStretch(g, o.Query, pairs, rng)
		t.AddRow(
			formatDims(d), g.N(), k, len(dt.Nodes[0].Plane), maxS, o.MaxLabelLandmarks(), build.Round(time.Millisecond))
	}
	if b := FitExponent(ns, ks); !math.IsNaN(b) {
		t.Notes = append(t.Notes, fmt.Sprintf("fitted growth: pathK ~ n^%.2f (the plane obstruction predicts ~0.67)", b))
	}
	t.Notes = append(t.Notes,
		"greedyPathK grows with n (no bounded k-path separator exists); plane separators keep (1+eps) oracles with small labels.")
	return t
}

func formatDims(d [3]int) string {
	return fmt.Sprintf("%dx%dx%d", d[0], d[1], d[2])
}

// E10Sparse measures Theorem 5's shape: on the sparse dense-core family
// the measured k grows like sqrt(n), unlike the minor-free classes.
func E10Sparse(c Config) *Table {
	t := &Table{
		Title:   "E10 (Thm 5): sparse graphs are not o(sqrt n)-path separable",
		Columns: []string{"n", "m", "greedyK", "sqrt(n)", "distinctRows"},
	}
	var ns, ks []float64
	for _, n := range c.pick([]int{64, 256}, []int{64, 256, 1024, 4096}) {
		g := hardness.SparseHard(n)
		k, err := hardness.MeasureGreedyK(g)
		if err != nil {
			t.AddRow(n, g.M(), "ERR", math.Sqrt(float64(n)), "-")
			continue
		}
		rows := "-"
		if n <= 256 {
			rows = fmt.Sprintf("%d", hardness.DistinctDistanceRows(g))
		}
		t.AddRow(n, g.M(), k, math.Sqrt(float64(n)), rows)
		ns = append(ns, float64(n))
		ks = append(ks, float64(k))
	}
	if b := FitExponent(ns, ks); !math.IsNaN(b) {
		t.Notes = append(t.Notes, fmt.Sprintf("fitted growth: k ~ n^%.2f (Theorem 5 predicts exponent 0.5)", b))
	}
	t.Notes = append(t.Notes,
		"greedyK tracks sqrt(n): the dense bipartite core forces many paths, matching the Theorem 5 obstruction.",
		"distinctRows = n means exact labels need >= log2(n) bits even at tiny scale.")
	return t
}

// All runs every experiment.
func All(c Config) []*Table {
	return []*Table{
		E1Separator(c),
		E2Treewidth(c),
		E3StrongLB(c),
		E4Oracle(c),
		E5Labels(c),
		E6Routing(c),
		E7SmallWorld(c),
		E8Note2(c),
		E9Doubling(c),
		E10Sparse(c),
	}
}
