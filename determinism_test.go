// The runtime determinism gate (make determinism): every schedule the
// pipeline can experience — different GOMAXPROCS, different pool widths,
// shuffled task submission order — must produce a byte-identical flat
// oracle image and the same path-reporting capability. The static side of the same invariant is the
// maporder/slotwrite/sortcmp analyzer trio; this gate catches whatever
// slips past a conservative static pass.
//
// The full matrix rebuilds each family dozens of times, so it only runs
// when DETERMINISM_GATE=1 is set (the determinism Make target); plain
// `go test` gets the cheap shuffled-submission smoke test.
package pathsep_test

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"

	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/oracle"
	"pathsep/internal/par"
)

// buildEncoding decomposes, builds and freezes one oracle and returns
// the flat image encoding.
func buildEncoding(t *testing.T, g *graph.Graph, rot *embed.Rotation, mode oracle.Mode, workers int) []byte {
	t.Helper()
	dec, err := core.Decompose(g, core.Options{Strategy: core.Auto{}, Rot: rot, Workers: workers})
	if err != nil {
		t.Fatalf("decompose: %v", err)
	}
	o, err := oracle.Build(dec, oracle.Options{Epsilon: 0.25, Mode: mode, Workers: workers})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	fz, err := o.Freeze()
	if err != nil {
		t.Fatalf("freeze: %v", err)
	}
	if fz.PathReporting() != o.PathReporting() {
		t.Fatalf("freeze: image path reporting %v, oracle %v", fz.PathReporting(), o.PathReporting())
	}
	return fz.Encode()
}

// TestDeterminismGate is the exhaustive schedule matrix. Enable with
// DETERMINISM_GATE=1 (make determinism).
func TestDeterminismGate(t *testing.T) {
	if os.Getenv("DETERMINISM_GATE") != "1" {
		t.Skip("set DETERMINISM_GATE=1 (make determinism) to run the full schedule matrix")
	}
	runMatrix(t, []int{1, 4}, []int{1, 2, 4, 0}, []int64{0, 0xC0FFEE, 7})
}

// TestDeterminismShuffleSmoke is the always-on slice of the matrix: one
// shuffled parallel schedule against the serial reference.
func TestDeterminismShuffleSmoke(t *testing.T) {
	runMatrix(t, []int{runtime.GOMAXPROCS(0)}, []int{1, 4}, []int64{0xC0FFEE})
}

func runMatrix(t *testing.T, gomaxprocs, workerCounts []int, seeds []int64) {
	defer par.SetShuffleSeed(0)
	for name, fam := range parallelFamilies(t) {
		for _, mode := range []oracle.Mode{oracle.CoverExact, oracle.CoverPortal} {
			modeName := "exact"
			if mode == oracle.CoverPortal {
				modeName = "portal"
			}
			// Reference: serial build, identity submission order.
			par.SetShuffleSeed(0)
			refFlat := buildEncoding(t, fam.g, fam.rot, mode, 1)
			if len(refFlat) == 0 {
				t.Fatalf("%s/%s: empty reference encoding", name, modeName)
			}
			for _, gmp := range gomaxprocs {
				prev := runtime.GOMAXPROCS(gmp)
				for _, workers := range workerCounts {
					for _, seed := range seeds {
						par.SetShuffleSeed(seed)
						cfg := fmt.Sprintf("%s/%s gomaxprocs=%d workers=%d shuffle=%#x",
							name, modeName, gmp, workers, seed)
						flat := buildEncoding(t, fam.g, fam.rot, mode, workers)
						if !bytes.Equal(flat, refFlat) {
							t.Errorf("%s: flat encoding differs from serial reference (%d vs %d bytes)",
								cfg, len(flat), len(refFlat))
						}
					}
				}
				runtime.GOMAXPROCS(prev)
			}
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}
