// Package analyzers collects the repo-specific go/analysis passes that
// enforce pathsep's correctness invariants — the rules the compiler cannot
// see and no runtime gate catches:
//
//   - obsnilguard: obs handles stay nil-safe and are never copied by value
//   - seededrand:  randomness is injected and reproducible, never ambient
//   - floatcmp:    float64 distances are compared through epsilon helpers
//   - subgraphmut: shared adjacency storage is never mutated downstream
//   - errctx:      errors are wrapped with %w and never silently dropped
//   - maporder:    map-range results never reach encoders or other
//     order-sensitive sinks without a sort barrier
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
// Each analyzer here is the only gate that fails for at least one seeded
// bug of its class (DESIGN.md §6 holds the mutation table). Invariants a
// runtime gate already enforces have no analyzer: the query paths'
// allocation-freedom (the 0-alloc tests) and par task slot discipline
// (go test -race, the golden image digests and make determinism).
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
	"pathsep/internal/analyzers/leasepair"
	"pathsep/internal/analyzers/maporder"
	"pathsep/internal/analyzers/obsnilguard"
	"pathsep/internal/analyzers/offwire"
	"pathsep/internal/analyzers/poolleak"
	"pathsep/internal/analyzers/seededrand"
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
		leasepair.Analyzer,
		maporder.Analyzer,
		obsnilguard.Analyzer,
		offwire.Analyzer,
		poolleak.Analyzer,
		seededrand.Analyzer,
		sortcmp.Analyzer,
		subgraphmut.Analyzer,
		unsafeview.Analyzer,
	}
}
