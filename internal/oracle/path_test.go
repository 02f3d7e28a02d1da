package oracle

import (
	"encoding/binary"
	"math"
	"testing"
)

// TestDecodeFlatPathValidation pins the path-section decode contract:
// structural corruption of the path sections is rejected at decode
// time, and semantic corruption (in-range hop cycles) surfaces as a
// static query error — never a panic.
func TestDecodeFlatPathValidation(t *testing.T) {
	_, o := buildSeeded(t, 2, 24, CoverExact)
	fl, err := o.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	enc := fl.Encode()
	s := fl.layout()
	le := binary.LittleEndian

	mutate := func(f func(b []byte)) []byte {
		b := make([]byte, len(enc))
		copy(b, enc)
		f(b)
		return b
	}

	// Hop link pointing past the portal pool: decode must reject.
	bad := mutate(func(b []byte) { le.PutUint32(b[s.hops:], uint32(len(fl.portals)+5)) })
	if _, err := DecodeFlat(bad); err == nil {
		t.Fatal("out-of-range hop link decoded without error")
	}

	// Path vertex out of range: decode must reject.
	bad = mutate(func(b []byte) { le.PutUint32(b[s.pathVert:], uint32(fl.n)) })
	if _, err := DecodeFlat(bad); err == nil {
		t.Fatal("out-of-range path vertex decoded without error")
	}

	// NaN position: decode must reject.
	bad = mutate(func(b []byte) { le.PutUint64(b[s.pathPos:], math.Float64bits(math.NaN())) })
	if _, err := DecodeFlat(bad); err == nil {
		t.Fatal("NaN path position decoded without error")
	}

	// In-range hop cycle: the u-side witness record of some (0, v) query
	// and its hop target (same key, same position) linked to each other.
	// This passes decode validation by design; the walk must turn it into
	// a static error, never a panic or an unbounded loop.
	a := int32(-1)
	for v := 1; v < fl.n && a < 0; v++ {
		if _, _, bpa, _ := fl.queryArg(0, v); bpa >= 0 && fl.hops[bpa] >= 0 {
			a = bpa
		}
	}
	if a < 0 {
		t.Fatal("no (0, v) witness record with a hop")
	}
	cyclic := mutate(func(b []byte) {
		le.PutUint32(b[s.hops+4*int(fl.hops[a]):], uint32(a))
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
}
