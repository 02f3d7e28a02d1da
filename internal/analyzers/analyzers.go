// Package analyzers collects the repo-specific go/analysis passes that
// enforce pathsep's correctness invariants — the rules the compiler cannot
// see but the theorems and the observability layer depend on:
//
//   - obsnilguard: obs handles stay nil-safe and are never copied by value
//   - seededrand:  randomness is injected and reproducible, never ambient
//   - floatcmp:    float64 distances are compared through epsilon helpers
//   - subgraphmut: shared adjacency storage is never mutated downstream
//   - errctx:      errors are wrapped with %w and never silently dropped
//   - hotalloc:    //pathsep:hotpath query functions stay allocation-free
//   - maporder:    map-range results never reach encoders or other
//     order-sensitive sinks without a sort barrier
//   - slotwrite:   par.ForEach/Fork tasks write only task-index-disjoint
//     slots, never shared appends/maps/scalars
//   - sortcmp:     sort.Slice less-functions are strict weak orderings and
//     compare floats via core/floatcmp
//   - atomicmix:   memory touched through sync/atomic is never accessed
//     plainly, and atomic.Pointer pointees are initialized before publish
//   - poolleak:    sync.Pool buffers reach a Put on every path, with no
//     use-after-Put and no foreign or cross-pool Put
//   - ctxdone:     serving-plane goroutines are tied to a shutdown signal
//     or carry an explicit //pathsep:detached
//   - leasepair:   //pathsep:lease acquire/release pairs close on every
//     path, with no use-after-release, one generation per response, and
//     no raw atomic access to the leased pointer
//   - unsafeview:  unsafe.Slice image views are validation-dominated,
//     read-only everywhere, and never outlive their backing buffer
//   - offwire:     encoder and decoder agree on every wire section's
//     stride, widths, and counts, and decoded sections are
//     element-validated
//
// The determinism trio (maporder, slotwrite, sortcmp) shares the ssaflow
// value-flow layer and is backed at runtime by `make determinism`, which
// rebuilds the oracle under shuffled schedules and byte-compares encodings.
// The concurrency trio (atomicmix, poolleak, ctxdone) guards the serving
// plane's lock-free image swap, buffer pools, and graceful drain; its
// runtime backstop is the -race swap/drain tests in internal/serve. The
// image-integrity trio (leasepair, unsafeview, offwire) rides the
// interprocedural ssaflow summaries to guard the zero-copy image plane:
// the reader lease around the atomic swap, the unsafe section views, and
// the encode/decode wire contract.
//
// The suite runs as `go vet -vettool=bin/pathsep-lint` (see cmd/pathsep-lint
// and `make lint`), and each analyzer carries analysistest-style coverage
// under its testdata/src tree.
package analyzers

import (
	"golang.org/x/tools/go/analysis"

	"pathsep/internal/analyzers/atomicmix"
	"pathsep/internal/analyzers/ctxdone"
	"pathsep/internal/analyzers/errctx"
	"pathsep/internal/analyzers/floatcmp"
	"pathsep/internal/analyzers/hotalloc"
	"pathsep/internal/analyzers/leasepair"
	"pathsep/internal/analyzers/maporder"
	"pathsep/internal/analyzers/obsnilguard"
	"pathsep/internal/analyzers/offwire"
	"pathsep/internal/analyzers/poolleak"
	"pathsep/internal/analyzers/seededrand"
	"pathsep/internal/analyzers/slotwrite"
	"pathsep/internal/analyzers/sortcmp"
	"pathsep/internal/analyzers/subgraphmut"
	"pathsep/internal/analyzers/unsafeview"
)

// All returns every analyzer in the suite, in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicmix.Analyzer,
		ctxdone.Analyzer,
		errctx.Analyzer,
		floatcmp.Analyzer,
		hotalloc.Analyzer,
		leasepair.Analyzer,
		maporder.Analyzer,
		obsnilguard.Analyzer,
		offwire.Analyzer,
		poolleak.Analyzer,
		seededrand.Analyzer,
		slotwrite.Analyzer,
		sortcmp.Analyzer,
		subgraphmut.Analyzer,
		unsafeview.Analyzer,
	}
}
