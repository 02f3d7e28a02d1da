package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/oracle"
)

// buildImage freezes a small grid oracle and returns its encoding.
func buildImage(t *testing.T) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	r := embed.Grid(8, 8, graph.UniformWeights(1, 4), rng)
	dec, err := core.Decompose(r.G, core.Options{Strategy: core.Auto{}, Rot: r})
	if err != nil {
		t.Fatal(err)
	}
	o, err := oracle.Build(dec, oracle.Options{Epsilon: 0.5, Mode: oracle.CoverPortal})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := o.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return fl.Encode()
}

// runInspect captures inspectImage's stdout for one image file.
func runInspect(t *testing.T, img []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "image.bin")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	rd, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = wr
	inspectErr := inspectImage(path)
	os.Stdout = saved
	wr.Close()
	out, _ := io.ReadAll(rd)
	rd.Close()
	if inspectErr != nil {
		t.Fatalf("inspectImage: %v\n%s", inspectErr, out)
	}
	return string(out)
}

// TestInspectImagePathSections checks the path-section report: element
// and byte counts of every path section, as the decoded image has them.
func TestInspectImagePathSections(t *testing.T) {
	img := buildImage(t)
	fl, err := oracle.DecodeFlat(img)
	if err != nil {
		t.Fatal(err)
	}
	out := runInspect(t, img)
	want := fmt.Sprintf("path sections: hops=%d (%d B)  path_off=%d (%d B)  path_vert=%d (%d B)",
		fl.NumHops(), 4*fl.NumHops(), fl.NumKeys()+1, 4*(fl.NumKeys()+1), fl.NumPathVerts(), 4*fl.NumPathVerts())
	if fl.NumHops() == 0 || fl.NumPathVerts() == 0 || !strings.Contains(out, want) {
		t.Errorf("inspect missing %q:\n%s", want, out)
	}
}
