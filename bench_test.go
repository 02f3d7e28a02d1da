// Benchmarks: one Benchmark per experiment of EXPERIMENTS.md (E1–E10),
// exercising the operation each experiment measures, plus micro
// benchmarks of the hot paths. Custom metrics report the experiment's
// headline quantity (k, stretch, label words, hops) so `go test -bench`
// regenerates the numbers EXPERIMENTS.md records.
package pathsep_test

import (
	"math"
	"math/rand"
	"testing"

	"pathsep/internal/baseline"
	"pathsep/internal/core"
	"pathsep/internal/doubling"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/hardness"
	"pathsep/internal/labeling"
	"pathsep/internal/oracle"
	"pathsep/internal/routing"
	"pathsep/internal/shortest"
	"pathsep/internal/smallworld"
)

// E1: separator construction per graph class (Theorem 1 shape).

func BenchmarkE1SeparatorGrid(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r := embed.Grid(32, 32, graph.UniformWeights(1, 4), rng)
	b.ResetTimer()
	maxK := 0
	for i := 0; i < b.N; i++ {
		dec, err := core.Decompose(r.G, core.Options{Strategy: core.Auto{}, Rot: r})
		if err != nil {
			b.Fatal(err)
		}
		maxK = dec.MaxK
	}
	b.ReportMetric(float64(maxK), "maxK")
}

func BenchmarkE1SeparatorApollonian(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	r := embed.Apollonian(1024, graph.UniformWeights(1, 4), rng)
	b.ResetTimer()
	maxK := 0
	for i := 0; i < b.N; i++ {
		dec, err := core.Decompose(r.G, core.Options{Strategy: core.Auto{}, Rot: r})
		if err != nil {
			b.Fatal(err)
		}
		maxK = dec.MaxK
	}
	b.ReportMetric(float64(maxK), "maxK")
}

func BenchmarkE1SeparatorTree(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomTree(4096, graph.UniformWeights(1, 4), rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Decompose(g, core.Options{Strategy: core.TreeCentroid{}}); err != nil {
			b.Fatal(err)
		}
	}
}

// E2: strong center-bag separators on treewidth-r graphs (Theorem 7).

func BenchmarkE2TreewidthCenterBag(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := graph.KTree(1024, 4, graph.UniformWeights(1, 3), rng)
	b.ResetTimer()
	paths := 0
	for i := 0; i < b.N; i++ {
		sep, err := (core.CenterBag{}).Separate(core.Input{G: g})
		if err != nil {
			b.Fatal(err)
		}
		paths = sep.NumPaths()
	}
	b.ReportMetric(float64(paths), "paths")
}

// E3: certified phased separator on the mesh+universal family
// (Theorem 6(3) vs Theorem 1).

func BenchmarkE3PhasedMeshUniversal(b *testing.B) {
	k := 0
	for i := 0; i < b.N; i++ {
		var err error
		k, err = hardness.MeshUniversalPhasedK(16)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(k), "phasedK")
	b.ReportMetric(float64(hardness.MeshUniversalStrongLB(16)), "strongLB")
}

// E4: oracle build and query (Theorem 2).

func BenchmarkE4OracleBuildExact(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	r := embed.Grid(16, 16, graph.UniformWeights(1, 4), rng)
	dec, err := core.Decompose(r.G, core.Options{Strategy: core.Auto{}, Rot: r})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.Build(dec, oracle.Options{Epsilon: 0.25, Mode: oracle.CoverExact}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4OracleBuildPortal(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	r := embed.Grid(32, 32, graph.UniformWeights(1, 4), rng)
	dec, err := core.Decompose(r.G, core.Options{Strategy: core.Auto{}, Rot: r})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.Build(dec, oracle.Options{Epsilon: 0.25, Mode: oracle.CoverPortal}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4OracleQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	r := embed.Grid(32, 32, graph.UniformWeights(1, 4), rng)
	dec, err := core.Decompose(r.G, core.Options{Strategy: core.Auto{}, Rot: r})
	if err != nil {
		b.Fatal(err)
	}
	o, err := oracle.Build(dec, oracle.Options{Epsilon: 0.25, Mode: oracle.CoverPortal})
	if err != nil {
		b.Fatal(err)
	}
	fl, err := o.Freeze()
	if err != nil {
		b.Fatal(err)
	}
	n := r.G.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.Query(i%n, (i*31)%n)
	}
}

func BenchmarkE4BaselineDijkstraQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	r := embed.Grid(32, 32, graph.UniformWeights(1, 4), rng)
	ex := &baseline.Exact{G: r.G}
	n := r.G.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Query(i%n, (i*31)%n)
	}
}

func BenchmarkE4BaselineTZBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	r := embed.Grid(32, 32, graph.UniformWeights(1, 4), rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.BuildTZ(r.G, 2, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// E5: label serialization (Theorem 2's label-size accounting).

func BenchmarkE5LabelEncodeDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	r := embed.Grid(16, 16, graph.UniformWeights(1, 4), rng)
	dec, err := core.Decompose(r.G, core.Options{Strategy: core.Auto{}, Rot: r})
	if err != nil {
		b.Fatal(err)
	}
	o, err := oracle.Build(dec, oracle.Options{Epsilon: 0.25, Mode: oracle.CoverExact})
	if err != nil {
		b.Fatal(err)
	}
	maxBits := 0
	for v := range o.Labels {
		if bits := o.Labels[v].Bits(); bits > maxBits {
			maxBits = bits
		}
	}
	b.ReportMetric(float64(maxBits), "maxLabelBits")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := o.Labels[i%len(o.Labels)].Encode()
		if _, err := oracle.DecodeLabel(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// E6: compact routing (abstract item 3).

func BenchmarkE6RouteGrid(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	r := embed.Grid(24, 24, graph.UniformWeights(1, 4), rng)
	dec, err := core.Decompose(r.G, core.Options{Strategy: core.Auto{}, Rot: r})
	if err != nil {
		b.Fatal(err)
	}
	router, err := routing.Build(dec, routing.Options{Epsilon: 0.25})
	if err != nil {
		b.Fatal(err)
	}
	n := r.G.N()
	b.ReportMetric(float64(router.MaxTableWords()), "maxTableWords")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := router.Route(i%n, (i*31)%n, 50*n); !ok {
			b.Fatal("undelivered")
		}
	}
}

// E7: small-world augmentation and greedy routing (Theorem 3).

func BenchmarkE7AugmentPathSeparator(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	r := embed.Grid(24, 24, graph.UniformWeights(1, 2), rng)
	dec, err := core.Decompose(r.G, core.Options{Strategy: core.Auto{}, Rot: r})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := smallworld.Augment(dec, smallworld.ModelPathSeparator, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7GreedyRoute(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	r := embed.Grid(24, 24, graph.UniformWeights(1, 2), rng)
	dec, err := core.Decompose(r.G, core.Options{Strategy: core.Auto{}, Rot: r})
	if err != nil {
		b.Fatal(err)
	}
	a, err := smallworld.Augment(dec, smallworld.ModelPathSeparator, rng)
	if err != nil {
		b.Fatal(err)
	}
	st := smallworld.Experiment(a, 50, rng, nil)
	b.ReportMetric(st.MeanHops, "meanHops")
	g := a.G
	n := g.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tgt := (i*31 + 7) % n
		distT := shortest.Dijkstra(g, tgt).Dist
		smallworld.GreedyRoute(a, i%n, tgt, distT, 10*n)
	}
}

// E8: Note 2 variant on unweighted grids.

func BenchmarkE8Note2Variant(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	r := embed.Grid(20, 20, graph.UnitWeights(), rng)
	dec, err := core.Decompose(r.G, core.Options{Strategy: core.Auto{}, Rot: r})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		a, err := smallworld.Augment(dec, smallworld.ModelClosestSeparator, rng)
		if err != nil {
			b.Fatal(err)
		}
		st := smallworld.Experiment(a, 20, rng, nil)
		mean = st.MeanHops
	}
	b.ReportMetric(mean, "meanHops")
}

// E9: doubling-separator oracle on the 3-D mesh (Theorem 8).

func BenchmarkE9DoublingOracle(b *testing.B) {
	tr, err := doubling.DecomposeMesh3D(6, 6, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var o *doubling.Oracle
	for i := 0; i < b.N; i++ {
		o, err = doubling.BuildOracle(tr, 0.2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(o.MaxLabelLandmarks()), "maxLabel")
}

func BenchmarkE9DoublingQuery(b *testing.B) {
	tr, err := doubling.DecomposeMesh3D(6, 6, 6)
	if err != nil {
		b.Fatal(err)
	}
	o, err := doubling.BuildOracle(tr, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	n := tr.G.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Query(i%n, (i*31)%n)
	}
}

// E10: sparse hard family (Theorem 5).

func BenchmarkE10SparseGreedyK(b *testing.B) {
	g := hardness.SparseHard(1024)
	b.ResetTimer()
	k := 0
	for i := 0; i < b.N; i++ {
		var err error
		k, err = hardness.MeasureGreedyK(g)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(k), "greedyK")
	b.ReportMetric(math.Sqrt(1024), "sqrtN")
}

// Micro benchmarks of the hot paths.

func BenchmarkDijkstraGrid64x64(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	r := embed.Grid(64, 64, graph.UniformWeights(1, 4), rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shortest.Dijkstra(r.G, i%r.G.N())
	}
}

func BenchmarkInducedSubgraph(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	g := graph.ConnectedGNM(4096, 12288, graph.UnitWeights(), rng)
	half := make([]int, 0, 2048)
	for v := 0; v < 4096; v += 2 {
		half = append(half, v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.Induced(g, half)
	}
}

func BenchmarkTriangulateGrid(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	r := embed.Grid(32, 32, graph.UnitWeights(), rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := embed.Triangulate(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanarizeGrid(b *testing.B) {
	g := graph.Mesh3D(20, 20, 1, graph.UnitWeights(), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := embed.Planarize(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeLabelingBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	g := graph.RandomTree(4096, graph.UniformWeights(1, 4), rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := labeling.BuildTree(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeLabelingQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	g := graph.RandomTree(4096, graph.UniformWeights(1, 4), rng)
	l, err := labeling.BuildTree(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Query(i%4096, (i*31)%4096)
	}
}
