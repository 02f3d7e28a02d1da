package oracle

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pathsep/internal/core"
	"pathsep/internal/graph"
	"pathsep/internal/obs"
)

// buildSeeded builds the label set over a seeded random graph: a tree for
// even seeds, a sparse connected graph for odd ones.
func buildSeeded(tb testing.TB, seed int64, n int, mode Mode) (*graph.Graph, *Oracle) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	var g *graph.Graph
	if seed%2 == 0 {
		g = graph.RandomTree(n, graph.UniformWeights(1, 4), rng)
	} else {
		g = graph.ConnectedGNM(n, 2*n, graph.UniformWeights(0.5, 2), rng)
	}
	dec, err := core.Decompose(g, core.Options{Strategy: core.Auto{}})
	if err != nil {
		tb.Fatal(err)
	}
	o, err := Build(dec, Options{Epsilon: 0.25, Mode: mode})
	if err != nil {
		tb.Fatal(err)
	}
	return g, o
}

// labelQuery is the reference every Flat.Query answer is held to: +Inf
// for malformed IDs, 0 for u == v, and otherwise QueryLabels over the
// build's two labels — the distributed scheme of Theorem 2.
func labelQuery(o *Oracle, u, v int) float64 {
	if u < 0 || v < 0 || u >= o.N || v >= o.N {
		return math.Inf(1)
	}
	if u == v {
		return 0
	}
	return QueryLabels(&o.Labels[u], &o.Labels[v])
}

// mustFreeze freezes o, failing the test on error.
func mustFreeze(tb testing.TB, o *Oracle) *Flat {
	tb.Helper()
	fl, err := o.Freeze()
	if err != nil {
		tb.Fatal(err)
	}
	return fl
}

// TestFreezeRoundTrip pins the flat accessors and the exact Encode /
// DecodeFlat round trip against the source oracle's accounting.
func TestFreezeRoundTrip(t *testing.T) {
	_, o := buildSeeded(t, 4, 60, CoverExact)
	fl, err := o.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if fl.N() != o.N {
		t.Fatalf("N = %d, want %d", fl.N(), o.N)
	}
	if !core.SameDist(fl.Eps(), o.Eps) {
		t.Fatalf("Eps = %v, want %v", fl.Eps(), o.Eps)
	}
	if fl.NumPortals() != o.SpacePortals() {
		t.Fatalf("NumPortals = %d, want %d", fl.NumPortals(), o.SpacePortals())
	}
	entries := 0
	for v := range o.Labels {
		entries += len(o.Labels[v].Entries)
	}
	if fl.NumEntries() != entries {
		t.Fatalf("NumEntries = %d, want %d", fl.NumEntries(), entries)
	}
	dec, err := DecodeFlat(fl.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < o.N; u++ {
		for v := 0; v < o.N; v++ {
			if want := labelQuery(o, u, v); math.Float64bits(dec.Query(u, v)) != math.Float64bits(want) {
				t.Fatalf("decoded Query(%d,%d) = %v, labels %v", u, v, dec.Query(u, v), want)
			}
		}
	}
}

// TestFlatSelfQueryObserved checks the metrics of the fast paths: the
// self-query path must be observed, so QPS accounting covers all
// traffic, and malformed IDs must not be.
func TestFlatSelfQueryObserved(t *testing.T) {
	_, o := buildSeeded(t, 2, 30, CoverExact)
	reg := obs.New()
	fl := mustFreeze(t, o)
	fl.SetMetrics(reg)

	lat := reg.Histogram("oracle.query_ns")
	base := lat.Count()
	if got := fl.Query(3, 3); !core.IsZeroDist(got) {
		t.Fatalf("Flat.Query(3,3) = %v", got)
	}
	if lat.Count() != base+1 {
		t.Fatalf("self query not observed by Flat.Query: count %d, want %d", lat.Count(), base+1)
	}
	fl.Query(-1, 3)
	if lat.Count() != base+1 {
		t.Fatalf("out-of-range query observed: count %d, want %d", lat.Count(), base+1)
	}
	if reg.Gauge("oracle.flat_bytes").Value() != int64(fl.EncodedSize()) {
		t.Fatalf("oracle.flat_bytes = %d, want %d", reg.Gauge("oracle.flat_bytes").Value(), fl.EncodedSize())
	}
}

// TestQueryBatchRecordsQPS checks the batch throughput gauge.
func TestQueryBatchRecordsQPS(t *testing.T) {
	_, o := buildSeeded(t, 2, 30, CoverExact)
	fl, err := o.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	fl.SetMetrics(reg)
	pairs := make([]Pair, 256)
	rng := rand.New(rand.NewSource(7))
	for i := range pairs {
		pairs[i] = Pair{U: int32(rng.Intn(30)), V: int32(rng.Intn(30))}
	}
	fl.QueryBatch(pairs, nil)
	if reg.Gauge("oracle.batch_qps").Value() <= 0 {
		t.Fatal("oracle.batch_qps not recorded")
	}
}

// TestQueryBatchEdgeCases pins the batch surface against per-pair
// Flat.Query on the degenerate shapes: empty batch, single pair,
// duplicate pairs, self pairs, and out-of-range IDs — for every pool
// width.
func TestQueryBatchEdgeCases(t *testing.T) {
	_, o := buildSeeded(t, 3, 40, CoverPortal)
	fl, err := o.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	n := int32(fl.N())
	batches := map[string][]Pair{
		"empty":     {},
		"single":    {{U: 1, V: 7}},
		"self":      {{U: 5, V: 5}, {U: 0, V: 0}},
		"duplicate": {{U: 2, V: 9}, {U: 2, V: 9}, {U: 9, V: 2}, {U: 2, V: 9}},
		"bounds":    {{U: -1, V: 3}, {U: 3, V: -1}, {U: n, V: 0}, {U: 0, V: n + 7}},
		"mixed":     {{U: 4, V: 4}, {U: -1, V: 2}, {U: 1, V: 8}, {U: 1, V: 8}, {U: 0, V: n - 1}},
	}
	names := make([]string, 0, len(batches))
	for name := range batches {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pairs := batches[name]
		for _, workers := range []int{1, 2, 0} {
			got := fl.QueryBatchWorkers(pairs, nil, workers)
			if len(got) != len(pairs) {
				t.Fatalf("%s workers=%d: len = %d, want %d", name, workers, len(got), len(pairs))
			}
			for i, p := range pairs {
				want := fl.Query(int(p.U), int(p.V))
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("%s workers=%d: out[%d] = %v, Query(%d,%d) = %v",
						name, workers, i, got[i], p.U, p.V, want)
				}
			}
		}
	}
	// Empty batch with a nil buffer returns an empty, usable slice.
	if out := fl.QueryBatch(nil, nil); len(out) != 0 {
		t.Fatalf("QueryBatch(nil, nil) returned %d results", len(out))
	}
}

// TestQueryBatchReusedBufferAllocs pins the amortized-zero-allocation
// contract: once the output buffer has capacity, serial batches must not
// allocate at all.
func TestQueryBatchReusedBufferAllocs(t *testing.T) {
	_, o := buildSeeded(t, 2, 40, CoverExact)
	fl, err := o.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]Pair, 64)
	rng := rand.New(rand.NewSource(5))
	for i := range pairs {
		pairs[i] = Pair{U: int32(rng.Intn(40)), V: int32(rng.Intn(40))}
	}
	out := fl.QueryBatchWorkers(pairs, nil, 1)
	allocs := testing.AllocsPerRun(20, func() {
		out = fl.QueryBatchWorkers(pairs, out, 1)
	})
	if allocs != 0 {
		t.Fatalf("reused-buffer serial batch allocates %.1f allocs/op, want 0", allocs)
	}
}

// corruptFlatImages returns, keyed by the decode rule each breaks, one
// corruption per element-level rule of validate, each applied to the
// encoding of a path-reporting image with multi-entry labels and
// multi-portal runs.
func corruptFlatImages(tb testing.TB) map[string][]byte {
	tb.Helper()
	_, o := buildSeeded(tb, 3, 24, CoverExact)
	fl, err := o.Freeze()
	if err != nil {
		tb.Fatal(err)
	}
	enc := fl.Encode()
	s := fl.layout()
	twoEntries, twoPortals := -1, -1
	for v := 0; v < fl.n && twoEntries < 0; v++ {
		if fl.entryOff[v+1]-fl.entryOff[v] >= 2 {
			twoEntries = int(fl.entryOff[v])
		}
	}
	for e := 0; e < len(fl.entryKey) && twoPortals < 0; e++ {
		if fl.portalOff[e+1]-fl.portalOff[e] >= 2 {
			twoPortals = int(fl.portalOff[e])
		}
	}
	if twoEntries < 0 || twoPortals < 0 {
		tb.Fatal("image has no vertex with two entries or no entry with two portals")
	}
	// The (0,1) witness record and an anchor record of the other key with
	// the longest geometry: a hop between them stays in the pool but
	// leaves its key, so the walk would index the witness key's geometry
	// with the other key's anchor (a wrong walk, or a slice past the
	// span).
	_, kid, witness, _ := fl.queryArg(0, 1)
	farAnchor, farSpan := int32(-1), int32(-1)
	for e, k := range fl.entryKey {
		if span := fl.pathOff[k+1] - fl.pathOff[k]; k != kid && span > farSpan {
			for i := fl.portalOff[e]; i < fl.portalOff[e+1]; i++ {
				if fl.hops[i] < 0 {
					farAnchor, farSpan = i, span
					break
				}
			}
		}
	}
	if witness < 0 || farAnchor < 0 {
		tb.Fatal("image has no (0,1) witness or no anchor on another key")
	}
	le := binary.LittleEndian
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), enc...)
		f(b)
		return b
	}
	portal := func(i int) int { return s.portals + 16*i }
	return map[string][]byte{
		"trailing byte": append(append([]byte(nil), enc...), 0xFF),
		"NaN dist": mutate(func(b []byte) {
			le.PutUint64(b[portal(0)+8:], math.Float64bits(math.NaN()))
		}),
		"-Inf dist": mutate(func(b []byte) {
			le.PutUint64(b[portal(0)+8:], math.Float64bits(math.Inf(-1)))
		}),
		"negative pos": mutate(func(b []byte) {
			le.PutUint64(b[portal(0):], math.Float64bits(-1))
		}),
		"repeated entry key": mutate(func(b []byte) {
			copy(b[s.entryKey+4*(twoEntries+1):], b[s.entryKey+4*twoEntries:][:4])
		}),
		"repeated portal pos": mutate(func(b []byte) {
			copy(b[portal(twoPortals+1):], b[portal(twoPortals):][:8])
		}),
		"hop leaves its key": mutate(func(b []byte) {
			le.PutUint32(b[s.hops+4*int(witness):], uint32(farAnchor))
		}),
	}
}

// TestDecodeRejectsCorruption pins the element-level decode rules, one
// table case each: DecodeFlat must reject every corruption rather than
// serve it, on the zero-copy and the copying path alike.
func TestDecodeRejectsCorruption(t *testing.T) {
	cases := corruptFlatImages(t)
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := cases[name]
		if _, err := DecodeFlat(b); err == nil {
			t.Errorf("%s: corrupted image decoded without error", name)
		}
		shifted := make([]byte, len(b)+1)
		copy(shifted[1:], b)
		if _, err := DecodeFlat(shifted[1:]); err == nil {
			t.Errorf("%s: corrupted image decoded without error on the copying path", name)
		}
	}
}

// FuzzFlatRoundTrip drives Freeze → Encode → DecodeFlat over seeded
// random graphs and checks query equivalence against QueryLabels over the
// build's labels on sampled pairs (including self and out-of-range IDs).
func FuzzFlatRoundTrip(f *testing.F) {
	f.Add(int64(2), uint8(24), false)
	f.Add(int64(3), uint8(31), true)
	f.Add(int64(10), uint8(5), false)

	f.Fuzz(func(t *testing.T, seed int64, size uint8, portal bool) {
		n := 2 + int(size)%38
		mode := CoverExact
		if portal {
			mode = CoverPortal
		}
		_, o := buildSeeded(t, seed, n, mode)
		fl, err := o.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeFlat(fl.Encode())
		if err != nil {
			t.Fatalf("round trip decode: %v", err)
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for q := 0; q < 200; q++ {
			u, v := rng.Intn(n+2)-1, rng.Intn(n+2)-1
			want := labelQuery(o, u, v)
			if got := fl.Query(u, v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("frozen Query(%d,%d) = %v, labels %v", u, v, got, want)
			}
			if got := dec.Query(u, v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("decoded Query(%d,%d) = %v, labels %v", u, v, got, want)
			}
		}
	})
}

// FuzzDecodeFlat feeds arbitrary bytes to DecodeFlat: inputs that parse
// must re-encode to the same bytes and answer queries without panicking.
func FuzzDecodeFlat(f *testing.F) {
	_, o := buildSeeded(f, 2, 20, CoverExact)
	fl, err := o.Freeze()
	if err != nil {
		f.Fatal(err)
	}
	enc := fl.Encode()
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add([]byte{flatMagic, 1})
	f.Add([]byte{flatMagic, flatVersion})
	f.Add([]byte{})
	// The same image under the retired version byte 1.
	v1 := append([]byte(nil), enc...)
	v1[1] = 1
	f.Add(v1)
	// An in-range hop cycle with records hanging below it: decodes, and
	// path queries through it must fail cleanly.
	cyclic, _ := cyclicHopImage(f, fl)
	f.Add(cyclic)
	// One seed per element-level decode rule, in a fixed order.
	bad := corruptFlatImages(f)
	names := make([]string, 0, len(bad))
	for name := range bad {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(bad[name])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode from an aligned copy and a deliberately misaligned copy,
		// not from data itself: DecodeFlat branches on buffer alignment,
		// and the fuzz engine hands inputs at arbitrary offsets, which
		// would make coverage flip between the zero-copy and copying
		// paths run to run and stall the minimizer. This way both paths
		// run deterministically on every input.
		aligned := make([]byte, len(data))
		copy(aligned, data)
		shifted := make([]byte, len(data)+1)
		copy(shifted[1:], data)

		fl, err := DecodeFlat(aligned)
		flCopy, errCopy := DecodeFlat(shifted[1:])
		if (err == nil) != (errCopy == nil) {
			t.Fatalf("decode paths disagree: zero-copy err=%v, copying err=%v", err, errCopy)
		}
		if err != nil {
			return
		}
		canon := fl.Encode()
		fl2, err := DecodeFlat(canon)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		n := fl.N()
		for _, pair := range [][2]int{{0, 0}, {0, n - 1}, {-1, 3}, {n, n}} {
			a := fl.Query(pair[0], pair[1])
			for _, other := range []*Flat{flCopy, fl2} {
				if b := other.Query(pair[0], pair[1]); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("Query(%d,%d): %v vs %v", pair[0], pair[1], a, b)
				}
			}
		}
		// Path queries over decoded (possibly hostile) images may return
		// errors but must never panic, and the zero-copy and copying
		// decodes must answer identically, on every ordered pair of the
		// first few vertices.
		var buf, buf2 []int32
		for u := 0; u < min(n, 8); u++ {
			for v := 0; v < min(n, 8); v++ {
				ad, pa, errA := fl.QueryPath(u, v, buf)
				bd, pb, errB := flCopy.QueryPath(u, v, buf2)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("QueryPath(%d,%d): zero-copy err=%v, copying err=%v", u, v, errA, errB)
				}
				if errA == nil && (math.Float64bits(ad) != math.Float64bits(bd) || !slices.Equal(pa, pb)) {
					t.Fatalf("QueryPath(%d,%d): %v %v vs %v %v", u, v, ad, pa, bd, pb)
				}
				buf, buf2 = pa[:0], pb[:0]
			}
		}
	})
}

// TestQueryLabelsZeroAllocs pins the label-only query (queryLabels and
// its pairMin fold) at 0 allocs/op: QueryLabels is the distributed
// scheme of Theorem 2 and the reference Flat.Query is held to, and no
// other runtime gate measures its allocations.
func TestQueryLabelsZeroAllocs(t *testing.T) {
	_, o := buildSeeded(t, 3, 120, CoverPortal)
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		u, v := i%o.N, (i*37+11)%o.N
		QueryLabels(&o.Labels[u], &o.Labels[v])
		i++
	})
	if allocs != 0 {
		t.Fatalf("QueryLabels: %v allocs/run, want 0", allocs)
	}
}
