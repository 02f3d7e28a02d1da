package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/obs"
	"pathsep/internal/oracle"
)

// Build settings shared by every workload: the defaults of cmd/pathsepd
// (ε = 0.25, portal mode, worker pools sized by GOMAXPROCS).
const (
	buildEps  = 0.25
	buildMode = oracle.CoverPortal
)

// genFunc makes a workload's graph from a seed. Generators only make
// inputs; their time is not attributed to any program layer.
type genFunc func(seed int64) (*graph.Graph, *embed.Rotation)

func gridGen(side int) genFunc {
	return func(seed int64) (*graph.Graph, *embed.Rotation) {
		r := embed.Grid(side, side, graph.UniformWeights(1, 4), rand.New(rand.NewSource(seed)))
		return r.G, r
	}
}

func ktreeGen(n, k int) genFunc {
	return func(seed int64) (*graph.Graph, *embed.Rotation) {
		return graph.KTree(n, k, graph.UniformWeights(1, 4), rand.New(rand.NewSource(seed))), nil
	}
}

// stages holds the timed build and load steps of one image.
type stages struct {
	gen, decompose, oracle, freeze, encode, decode time.Duration
	allocBytes                                     uint64 // heap bytes allocated across the build
}

// image is one built oracle: the graph it answers for, its encoded bytes
// and the decoded serving form. The decomposition tree and the pointer
// oracle are dropped as soon as the image exists, as a daemon would drop
// them; only their sizes are kept.
type image struct {
	g        *graph.Graph
	bytes    []byte
	flat     *oracle.Flat
	stages   stages
	nodes    int // decomposition tree nodes
	sepPaths int // separator paths over all nodes
}

// buildImage runs the whole pipeline on one seed: generate, Decompose,
// Build, Freeze, Encode, DecodeFlat. reg, when non-nil, receives the
// program's own build counters; tr records one span per stage under
// parent.
func buildImage(gen genFunc, seed int64, reg *obs.Registry, tr *tracer, parent int) (*image, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	var st stages
	step := func(name, layer string, d *time.Duration, f func() error) error {
		id := tr.begin(name, layer, parent)
		t0 := time.Now()
		err := f()
		*d = time.Since(t0)
		tr.end(id)
		return err
	}
	im := &image{}
	var rot *embed.Rotation
	var tree *core.Tree
	var o *oracle.Oracle
	err := step("gen", layerBench, &st.gen, func() error {
		im.g, rot = gen(seed)
		return nil
	})
	if err == nil {
		err = step("build.decompose", layerBuild, &st.decompose, func() (err error) {
			tree, err = core.Decompose(im.g, core.Options{Strategy: core.Auto{}, Rot: rot, Metrics: reg})
			return err
		})
	}
	if err == nil {
		err = step("build.oracle", layerBuild, &st.oracle, func() (err error) {
			im.nodes, im.sepPaths = len(tree.Nodes), tree.TotalPaths
			o, err = oracle.Build(tree, oracle.Options{Epsilon: buildEps, Mode: buildMode, Metrics: reg})
			return err
		})
	}
	var fl *oracle.Flat
	if err == nil {
		err = step("build.freeze", layerBuild, &st.freeze, func() (err error) {
			fl, err = o.Freeze()
			return err
		})
	}
	if err == nil {
		err = step("build.encode", layerBuild, &st.encode, func() error {
			im.bytes = fl.Encode()
			return nil
		})
	}
	runtime.ReadMemStats(&ms)
	st.allocBytes = ms.TotalAlloc - alloc0
	if err == nil {
		err = step("load.decode", layerLoad, &st.decode, func() (err error) {
			im.flat, err = oracle.DecodeFlat(im.bytes)
			return err
		})
	}
	if err != nil {
		return nil, fmt.Errorf("build seed %d: %w", seed, err)
	}
	im.stages = st
	return im, nil
}
