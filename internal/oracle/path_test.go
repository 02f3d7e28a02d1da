package oracle

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// TestDecodeFlatPathValidation pins the path-section decode contract:
// structural corruption of the path sections is rejected at decode
// time, and semantic corruption (an in-range hop cycle, with records
// hanging below it) leaves those records without a walk and surfaces as
// a static query error — never a panic.
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

	// In-range hop cycle with a subtree hanging off it. This passes
	// decode validation by design; every record on or below the cycle
	// must keep no walk, and every pair whose witness is one of them
	// must get a static error — never a panic or an unbounded loop —
	// while every other pair answers exactly as before the corruption.
	cyclic, a := cyclicHopImage(t, fl)
	cf, err := DecodeFlat(cyclic)
	if err != nil {
		t.Fatalf("in-range cyclic hops rejected at decode: %v", err)
	}
	// stuck: on or below the cycle; below: strictly below it.
	stuck := make([]bool, len(cf.hops))
	below := make([]bool, len(cf.hops))
	numBelow := 0
	for r := range cf.hops {
		x := int32(r)
		for steps := 0; x >= 0 && steps <= len(cf.hops); steps++ {
			x = cf.hops[x]
		}
		stuck[r] = x >= 0
		below[r] = stuck[r] && int32(r) != a && int32(r) != fl.hops[a]
		if below[r] {
			numBelow++
		}
		if stuck[r] != (cf.walkFrom[r].slot < 0) {
			t.Fatalf("record %d: on or below the hop cycle %v, walk slot %d", r, stuck[r], cf.walkFrom[r].slot)
		}
	}
	if numBelow == 0 {
		t.Fatal("no record hangs below the hop cycle")
	}
	var buf, want []int32
	hitBelow := 0
	for u := 0; u < cf.N(); u++ {
		for v := 0; v < cf.N(); v++ {
			if u == v {
				continue
			}
			_, _, bpa, bpb := cf.queryArg(u, v)
			d, got, qerr := cf.QueryPath(u, v, buf[:0])
			buf = got
			if bpa >= 0 && bpb >= 0 && (stuck[bpa] || stuck[bpb]) {
				if qerr == nil {
					t.Fatalf("QueryPath(%d,%d): witness on or below the hop cycle, got walk %v", u, v, got)
				}
				if below[bpa] || below[bpb] {
					hitBelow++
				}
				continue
			}
			wd, w, werr := fl.QueryPath(u, v, want[:0])
			want = w
			if (qerr == nil) != (werr == nil) || math.Float64bits(d) != math.Float64bits(wd) || !slices.Equal(got, w) {
				t.Fatalf("QueryPath(%d,%d) off the cycle: %v %v %v, uncorrupted %v %v %v", u, v, d, got, qerr, wd, w, werr)
			}
		}
	}
	if hitBelow == 0 {
		t.Fatal("no pair's witness hangs below the hop cycle")
	}
}

// cyclicHopImage returns f's encoding with one in-range hop cycle: a
// record a that has a hop and a child, and a's hop target, linked to
// each other. a's child (and any other record whose chain runs into the
// pair) then hangs below the cycle. a is the first query witness, over
// all ordered pairs, with both a hop and a child.
func cyclicHopImage(tb testing.TB, f *Flat) ([]byte, int32) {
	tb.Helper()
	hasChild := make([]bool, len(f.hops))
	for _, h := range f.hops {
		if h >= 0 {
			hasChild[h] = true
		}
	}
	a := int32(-1)
	for u := 0; u < f.n && a < 0; u++ {
		for v := 0; v < f.n && a < 0; v++ {
			if _, _, bpa, _ := f.queryArg(u, v); u != v && bpa >= 0 && f.hops[bpa] >= 0 && hasChild[bpa] {
				a = bpa
			}
		}
	}
	if a < 0 {
		tb.Fatal("no witness record with both a hop and a child")
	}
	b := f.Encode()
	binary.LittleEndian.PutUint32(b[f.layout().hops+4*int(f.hops[a]):], uint32(a))
	return b, a
}
