package oracle

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// buildPathImage builds a path-reporting oracle plus its frozen v2 image
// for the corruption tests below.
func buildPathImage(t *testing.T) (*Oracle, *Flat) {
	t.Helper()
	_, o := buildSeeded(t, 2, 24, CoverExact)
	if !o.PathReporting() {
		t.Fatal("seeded build carries no path data")
	}
	fl, err := o.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if !fl.PathReporting() {
		t.Fatal("frozen image lost path data")
	}
	return o, fl
}

// TestDecodeFlatPathValidation pins the v2 decode contract: structural
// corruption of the path sections is rejected at decode time, semantic
// corruption (in-range hop cycles) surfaces as a static query error —
// never a panic — and v1 images decode to distance-only oracles whose
// QueryPath reports ErrNoPathData.
func TestDecodeFlatPathValidation(t *testing.T) {
	o, fl := buildPathImage(t)
	enc := fl.Encode()
	if enc[1] != flatVersion2 {
		t.Fatalf("path-reporting image encoded as version %d", enc[1])
	}
	s2 := flatLayoutV2(fl.n, len(fl.keys), len(fl.entryKey), len(fl.portals), len(fl.pathVert))
	le := binary.LittleEndian

	mutate := func(f func(b []byte)) []byte {
		b := make([]byte, len(enc))
		copy(b, enc)
		f(b)
		return b
	}

	// Hop link pointing past the portal pool: decode must reject.
	bad := mutate(func(b []byte) { le.PutUint32(b[s2.hops:], uint32(len(fl.portals)+5)) })
	if _, err := DecodeFlat(bad); err == nil {
		t.Fatal("out-of-range hop link decoded without error")
	}

	// Path vertex out of range: decode must reject.
	bad = mutate(func(b []byte) { le.PutUint32(b[s2.pathVert:], uint32(fl.n)) })
	if _, err := DecodeFlat(bad); err == nil {
		t.Fatal("out-of-range path vertex decoded without error")
	}

	// NaN position: decode must reject.
	bad = mutate(func(b []byte) { le.PutUint64(b[s2.pathPos:], math.Float64bits(math.NaN())) })
	if _, err := DecodeFlat(bad); err == nil {
		t.Fatal("NaN path position decoded without error")
	}

	// In-range hop cycle: every link routed back to record 0. This passes
	// structural validation by design; the walk's step bound must convert
	// it into a static error on every reachable pair, never a panic.
	cyclic := mutate(func(b []byte) {
		for i := 0; i < len(fl.portals); i++ {
			le.PutUint32(b[s2.hops+4*i:], 0)
		}
	})
	cf, err := DecodeFlat(cyclic)
	if err != nil {
		t.Fatalf("in-range cyclic hops rejected at decode: %v", err)
	}
	var buf []int32
	sawErr := false
	for v := 1; v < cf.N(); v++ {
		var qerr error
		_, buf, qerr = cf.QueryPath(0, v, buf[:0])
		if qerr != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("cyclic hop links never surfaced a walk error")
	}

	// A distance-only freeze of the same oracle encodes as v1 and decodes
	// to an image that declines path queries with ErrNoPathData.
	o.hasPathData = false
	flV1, err := o.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	o.hasPathData = true
	encV1 := flV1.Encode()
	if encV1[1] != flatVersion {
		t.Fatalf("distance-only image encoded as version %d", encV1[1])
	}
	dv1, err := DecodeFlat(encV1)
	if err != nil {
		t.Fatal(err)
	}
	if dv1.PathReporting() {
		t.Fatal("v1 image claims path reporting")
	}
	if _, _, err := dv1.QueryPath(0, 1, nil); !errors.Is(err, ErrNoPathData) {
		t.Fatalf("v1 QueryPath error = %v, want ErrNoPathData", err)
	}
	if _, _, _, err := dv1.QueryPathBatch([]Pair{{U: 0, V: 1}}, nil, nil, nil); !errors.Is(err, ErrNoPathData) {
		t.Fatalf("v1 QueryPathBatch error = %v, want ErrNoPathData", err)
	}
	// Distance service is unharmed either way.
	if math.Float64bits(dv1.Query(0, 1)) != math.Float64bits(fl.Query(0, 1)) {
		t.Fatal("v1 image distance disagrees with v2 image")
	}
}
