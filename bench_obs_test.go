// Observability-overhead benchmarks: the instrumentation threaded
// through the hot paths must be free when no registry is attached, and
// allocation-free when one is. TestFlatQueryZeroAllocs is the gate
// (`make bench-overhead` runs it beside the benchmarks): Flat.Query is
// 0 allocs/op with no registry and no sampler (Disabled) and with a
// registry plus a slow-query sampler attached (Sampled).
// BenchmarkObsOverhead times the same two configurations.
//
// TestEmitBenchObs (run with EMIT_BENCH_OBS=1) regenerates BENCH_obs.json,
// the committed metrics-on vs. metrics-off numbers for the build and for
// Flat.Query.
package pathsep_test

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/obs"
	"pathsep/internal/oracle"
)

func buildObsOracle(tb testing.TB, reg *obs.Registry) (*oracle.Oracle, int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	r := embed.Grid(32, 32, graph.UniformWeights(1, 4), rng)
	dec, err := core.Decompose(r.G, core.Options{Strategy: core.Auto{}, Rot: r, Metrics: reg})
	if err != nil {
		tb.Fatal(err)
	}
	o, err := oracle.Build(dec, oracle.Options{Epsilon: 0.25, Mode: oracle.CoverPortal, Metrics: reg})
	if err != nil {
		tb.Fatal(err)
	}
	return o, r.G.N()
}

func BenchmarkObsOverhead(b *testing.B) {
	b.Run("FlatQueryDisabled", func(b *testing.B) {
		fl, n := buildObsFlat(b, nil, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fl.Query(i%n, (i*31)%n)
		}
	})
	b.Run("FlatQuerySampled", func(b *testing.B) {
		fl, n := buildObsFlat(b, obs.New(), obs.NewSlowQuerySampler(16))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fl.Query(i%n, (i*31)%n)
		}
	})
}

// buildObsFlat freezes the benchmark oracle into its flat serving form
// with the given observability hooks attached (either may be nil).
func buildObsFlat(tb testing.TB, reg *obs.Registry, slow *obs.SlowQuerySampler) (*oracle.Flat, int) {
	tb.Helper()
	o, n := buildObsOracle(tb, nil)
	fl, err := o.Freeze()
	if err != nil {
		tb.Fatal(err)
	}
	if reg != nil {
		fl.SetMetrics(reg)
	}
	fl.SetSlowSampler(slow)
	return fl, n
}

// TestFlatQueryZeroAllocs is the obs-overhead gate: Flat.Query must not
// allocate with observability fully disabled, and attaching a registry
// plus a slow-query sampler must not introduce allocations either.
func TestFlatQueryZeroAllocs(t *testing.T) {
	cases := []struct {
		name string
		reg  *obs.Registry
		slow *obs.SlowQuerySampler
	}{
		{"Disabled", nil, nil},
		{"Sampled", obs.New(), obs.NewSlowQuerySampler(16)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fl, n := buildObsFlat(t, tc.reg, tc.slow)
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				fl.Query(i%n, (i*31)%n)
				i++
			})
			if allocs != 0 {
				t.Fatalf("Flat.Query (%s): %v allocs/run, want 0", tc.name, allocs)
			}
		})
	}
}

// TestEmitBenchObs writes BENCH_obs.json when EMIT_BENCH_OBS=1. It times
// the build and Flat.Query with the registry attached and detached (and
// the query with a slow-query sampler added) so the committed file
// documents the measured instrumentation overhead.
func TestEmitBenchObs(t *testing.T) {
	if os.Getenv("EMIT_BENCH_OBS") != "1" {
		t.Skip("set EMIT_BENCH_OBS=1 to regenerate BENCH_obs.json")
	}

	type row struct {
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
		N           int     `json:"iterations"`
	}
	out := map[string]row{}

	record := func(name string, fn func(b *testing.B)) row {
		res := testing.Benchmark(fn)
		r := row{
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			N:           res.N,
		}
		out[name] = r
		return r
	}

	record("oracle_build_disabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buildObsOracle(b, nil)
		}
	})
	record("oracle_build_enabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buildObsOracle(b, obs.New())
		}
	})
	query := func(reg *obs.Registry, slow *obs.SlowQuerySampler) func(b *testing.B) {
		return func(b *testing.B) {
			fl, n := buildObsFlat(b, reg, slow)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fl.Query(i%n, (i*31)%n)
			}
		}
	}
	for _, q := range []struct {
		name string
		reg  *obs.Registry
		slow *obs.SlowQuerySampler
	}{
		{"flat_query_disabled", nil, nil},
		{"flat_query_enabled", obs.New(), nil},
		{"flat_query_sampled", obs.New(), obs.NewSlowQuerySampler(16)},
	} {
		if r := record(q.name, query(q.reg, q.slow)); r.AllocsPerOp != 0 {
			t.Errorf("%s allocates %d/op, want 0", q.name, r.AllocsPerOp)
		}
	}

	f, err := os.Create("BENCH_obs.json")
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_obs.json: %+v", out)
}
