// Query-serving benchmarks and the make-check speedup gate.
//
// BenchmarkQueryLabels / BenchmarkQueryFlat time single queries over the
// 4k-vertex grid's CoverPortal oracle: QueryLabels over the build's
// pointer-linked labels (the distributed scheme) and Flat.Query over the
// frozen image; BenchmarkQueryBatch times the batched path, and
// BenchmarkDecodeFlat the load of the same oracle's encoded image.
//
// TestQueryServingGate (run with BENCH_QUERY_GATE=1) is the CI gate:
// Flat.Query must answer >= 1.5x faster than QueryLabels over the same
// labels and must allocate nothing; the measured numbers are recorded
// in BENCH_query.json. Unlike the parallel-build gate this one holds on
// a single-core runner too — the flat layout's win is locality and
// interned key compares, not parallelism.
package pathsep_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/oracle"
)

// queryFixture builds the 64x64 grid CoverPortal oracle once per process
// and freezes it; both benchmark forms and the gate share it.
type queryFixture struct {
	o     *oracle.Oracle
	fl    *oracle.Flat
	pairs []oracle.Pair
}

var sharedQueryFixture *queryFixture

// labelQuery answers p from the build's two labels alone.
func (fx *queryFixture) labelQuery(p oracle.Pair) float64 {
	return oracle.QueryLabels(&fx.o.Labels[p.U], &fx.o.Labels[p.V])
}

func newQueryFixture(tb testing.TB) *queryFixture {
	tb.Helper()
	if sharedQueryFixture != nil {
		return sharedQueryFixture
	}
	rng := rand.New(rand.NewSource(17))
	r := embed.Grid(64, 64, graph.UniformWeights(1, 4), rng)
	dec, err := core.Decompose(r.G, core.Options{Strategy: core.Auto{}, Rot: r})
	if err != nil {
		tb.Fatal(err)
	}
	o, err := oracle.Build(dec, oracle.Options{Epsilon: 0.25, Mode: oracle.CoverPortal})
	if err != nil {
		tb.Fatal(err)
	}
	fl, err := o.Freeze()
	if err != nil {
		tb.Fatal(err)
	}
	n := r.G.N()
	pairs := make([]oracle.Pair, 4096)
	for i := range pairs {
		pairs[i] = oracle.Pair{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
	}
	sharedQueryFixture = &queryFixture{o: o, fl: fl, pairs: pairs}
	return sharedQueryFixture
}

func BenchmarkQueryLabels(b *testing.B) {
	fx := newQueryFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.labelQuery(fx.pairs[i%len(fx.pairs)])
	}
}

func BenchmarkQueryFlat(b *testing.B) {
	fx := newQueryFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := fx.pairs[i%len(fx.pairs)]
		fx.fl.Query(int(p.U), int(p.V))
	}
}

func BenchmarkQueryBatch(b *testing.B) {
	fx := newQueryFixture(b)
	out := make([]float64, len(fx.pairs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = fx.fl.QueryBatch(fx.pairs, out)
	}
}

// BenchmarkDecodeFlat times DecodeFlat on the fixture's encoded image:
// validation plus everything derived at load (the sweep lane and the
// walk layout). ms/MB is the decode time per encoded megabyte (10⁶
// bytes), the unit perfbench reports as load.decode_ms_per_mb.
func BenchmarkDecodeFlat(b *testing.B) {
	fx := newQueryFixture(b)
	enc := fx.fl.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.DecodeFlat(enc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(enc)), "ms/MB")
}

func TestQueryServingGate(t *testing.T) {
	if os.Getenv("BENCH_QUERY_GATE") != "1" {
		t.Skip("set BENCH_QUERY_GATE=1 to run the query serving gate")
	}
	fx := newQueryFixture(t)

	perOp := func(f func(p oracle.Pair)) float64 {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f(fx.pairs[i%len(fx.pairs)])
			}
		})
		return float64(res.T.Nanoseconds()) / float64(res.N)
	}

	// Three paired rounds, best ratio wins — bench-path's protocol.
	// Scheduler noise on a shared runner only ever inflates a
	// measurement, so judging one unpaired run makes the gate flaky in
	// both directions; pairing labels and flat inside each round and
	// taking the round with the best ratio is the faithful estimate.
	// The per-round flat measurements also yield a recorded relative
	// variance, so a noisy run is visible in BENCH_query.json.
	const rounds = 3
	labels, flat := 0.0, 0.0
	speedup := 0.0
	flatMin, flatMax := math.Inf(1), 0.0
	out := make([]float64, len(fx.pairs))
	batchQPS := 0.0
	for round := 0; round < rounds; round++ {
		lb := perOp(func(p oracle.Pair) { fx.labelQuery(p) })
		fl := perOp(func(p oracle.Pair) { fx.fl.Query(int(p.U), int(p.V)) })
		if s := lb / fl; s > speedup {
			labels, flat, speedup = lb, fl, s
		}
		flatMin = math.Min(flatMin, fl)
		flatMax = math.Max(flatMax, fl)
		batchRes := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out = fx.fl.QueryBatch(fx.pairs, out)
			}
		})
		if qps := float64(batchRes.N) * float64(len(fx.pairs)) / batchRes.T.Seconds(); qps > batchQPS {
			batchQPS = qps
		}
	}
	variance := (flatMax - flatMin) / flatMin

	// Flat.Query must be allocation-free; sample across the pair set so
	// short and long labels are both covered.
	allocs := testing.AllocsPerRun(1000, func() {
		for _, p := range fx.pairs[:64] {
			fx.fl.Query(int(p.U), int(p.V))
		}
	})
	// The warm batch path (reused output buffer) must be allocation-free
	// too: pairs are answered in caller order and the serial fast path
	// runs without a pool.
	batchAllocs := testing.AllocsPerRun(100, func() {
		out = fx.fl.QueryBatch(fx.pairs, out)
	})

	outJSON := map[string]interface{}{
		"grid":                       "64x64",
		"mode":                       "portal",
		"gomaxprocs":                 runtime.GOMAXPROCS(0),
		"labels_ns_per_op":           labels,
		"flat_ns_per_op":             flat,
		"speedup":                    speedup,
		"required_speedup":           1.5,
		"rounds":                     rounds,
		"variance":                   variance,
		"flat_allocs_per_query_loop": allocs,
		"batch_allocs_per_batch":     batchAllocs,
		"batch_qps":                  batchQPS,
		"flat_encoded_bytes":         fx.fl.EncodedSize(),
	}
	f, err := os.Create("BENCH_query.json")
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(outJSON); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_query.json: labels=%.0fns flat=%.0fns speedup=%.2fx variance=%.1f%% batch=%.0f qps", labels, flat, speedup, variance*100, batchQPS)

	if allocs != 0 {
		t.Fatalf("Flat.Query allocated: %.2f allocs per 64-query loop, want 0", allocs)
	}
	if batchAllocs != 0 {
		t.Fatalf("Flat.QueryBatch allocated: %.2f allocs per warm batch, want 0", batchAllocs)
	}
	if speedup < 1.5 {
		t.Fatalf("flat query speedup %.2fx < required 1.5x (labels %.0fns, flat %.0fns)", speedup, labels, flat)
	}
}

// queryFixtureImageSHA256 is the sha256 of the bench-query fixture's
// Freeze().Encode(): like oracle's TestImageBytesGolden, it pins the
// image bytes across commits on the largest fixture the gates use.
const queryFixtureImageSHA256 = "96220460483236cd53d9d4e166288421e6c381b5fbb92bb541429b7e019fec9e"

func TestQueryFixtureImageGolden(t *testing.T) {
	fx := newQueryFixture(t)
	sum := sha256.Sum256(fx.fl.Encode())
	if got := hex.EncodeToString(sum[:]); got != queryFixtureImageSHA256 {
		t.Fatalf("64x64 grid image sha256 %s, want %s", got, queryFixtureImageSHA256)
	}
}
