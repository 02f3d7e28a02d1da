package oracle

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Flat binary format (little-endian throughout, all sections 4- or
// 8-byte aligned relative to the buffer start):
//
//	[0]   magic 0xA7
//	[1]   version 1
//	[2:8] reserved (zero)
//	[8]   n          uint64
//	[16]  eps        float64 bits
//	[24]  mode       uint64
//	[32]  numKeys    uint64
//	[40]  numEntries uint64
//	[48]  numPortals uint64
//	[56]  keys       numKeys × 8B   (node int32 | phase int16 | path int16)
//	      entryOff   (n+1) × 4B     int32
//	      entryKey   numEntries × 4B int32
//	      portalOff  (numEntries+1) × 4B int32
//	      pad to 8B
//	      portals    numPortals × 16B (pos float64 | dist float64)
//
// Version 2 (path-reporting images) grows the header by one count and
// appends the hop links and separator-path geometry after the portal
// pool; everything up to and including the portals keeps the v1 layout
// shifted by the 8 extra header bytes:
//
//	[1]   version 2
//	[56]  numPathVerts uint64
//	[64]  keys … portals   as in v1
//	      hops      numPortals × 4B int32 (pool index of the next chain
//	                record, -1 at the anchor)
//	      pathOff   (numKeys+1) × 4B int32
//	      pathVert  numPathVerts × 4B int32
//	      pad to 8B
//	      pathPos   numPathVerts × 8B float64
//
// Distance-only images keep encoding as v1, so Encode∘DecodeFlat is a
// fixed point in both directions and old readers reject v2 loudly by
// version byte.
//
// The field order and widths match the in-memory layout of Key and Portal
// on a little-endian host, so DecodeFlat can alias the sections straight
// out of the byte slice (zero copy) whenever the buffer is 8-byte aligned;
// otherwise — or on a big-endian host — it falls back to a copying decode
// that reads the same bytes portably.
const (
	flatMagic    = 0xA7
	flatVersion  = 1
	flatVersion2 = 2
	flatHeader   = 56
	flatHeaderV2 = 64
)

// hostLittleEndian reports whether this machine stores multi-byte values
// little-endian (the layout the flat encoding is defined in).
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// flatSections computes the byte offsets of each section for the given
// element counts. The returned total is the exact encoded size.
type flatSections struct {
	keys, entryOff, entryKey, portalOff, portals int
	total                                        int
}

func flatLayout(n, numKeys, numEntries, numPortals int) flatSections {
	var s flatSections
	s.keys = flatHeader
	s.entryOff = s.keys + 8*numKeys
	s.entryKey = s.entryOff + 4*(n+1)
	s.portalOff = s.entryKey + 4*numEntries
	end := s.portalOff + 4*(numEntries+1)
	s.portals = (end + 7) &^ 7 // align the float64 pool
	s.total = s.portals + 16*numPortals
	return s
}

// flatSectionsV2 extends flatSections with the v2 path sections.
type flatSectionsV2 struct {
	flatSections
	hops, pathOff, pathVert, pathPos int
}

func flatLayoutV2(n, numKeys, numEntries, numPortals, numPathVerts int) flatSectionsV2 {
	var s flatSectionsV2
	s.keys = flatHeaderV2
	s.entryOff = s.keys + 8*numKeys
	s.entryKey = s.entryOff + 4*(n+1)
	s.portalOff = s.entryKey + 4*numEntries
	end := s.portalOff + 4*(numEntries+1)
	s.portals = (end + 7) &^ 7 // align the float64 pool
	s.hops = s.portals + 16*numPortals
	s.pathOff = s.hops + 4*numPortals
	s.pathVert = s.pathOff + 4*(numKeys+1)
	end = s.pathVert + 4*numPathVerts
	s.pathPos = (end + 7) &^ 7 // align the float64 positions
	s.total = s.pathPos + 8*numPathVerts
	return s
}

// EncodedSize returns the exact byte length of Encode's output.
func (f *Flat) EncodedSize() int {
	if f.hasPathData {
		return flatLayoutV2(f.n, len(f.keys), len(f.entryKey), len(f.portals), len(f.pathVert)).total
	}
	return flatLayout(f.n, len(f.keys), len(f.entryKey), len(f.portals)).total
}

// Encode serializes the flat oracle (as v2 when it carries path data,
// v1 otherwise). The output is 8-byte aligned by construction (Go
// allocations of this size always are), so decoding it back on a
// little-endian host takes the zero-copy path.
func (f *Flat) Encode() []byte {
	var s flatSections
	var s2 flatSectionsV2
	if f.hasPathData {
		s2 = flatLayoutV2(f.n, len(f.keys), len(f.entryKey), len(f.portals), len(f.pathVert))
		s = s2.flatSections
	} else {
		s = flatLayout(f.n, len(f.keys), len(f.entryKey), len(f.portals))
	}
	buf := make([]byte, s.total)
	buf[0] = flatMagic
	buf[1] = flatVersion
	le := binary.LittleEndian
	le.PutUint64(buf[8:], uint64(f.n))
	le.PutUint64(buf[16:], math.Float64bits(f.eps))
	le.PutUint64(buf[24:], uint64(f.mode))
	le.PutUint64(buf[32:], uint64(len(f.keys)))
	le.PutUint64(buf[40:], uint64(len(f.entryKey)))
	le.PutUint64(buf[48:], uint64(len(f.portals)))
	if f.hasPathData {
		buf[1] = flatVersion2
		le.PutUint64(buf[56:], uint64(len(f.pathVert)))
	}
	for i, k := range f.keys {
		at := s.keys + 8*i
		le.PutUint32(buf[at:], uint32(k.Node))
		le.PutUint16(buf[at+4:], uint16(k.Phase))
		le.PutUint16(buf[at+6:], uint16(k.Path))
	}
	for i, v := range f.entryOff {
		le.PutUint32(buf[s.entryOff+4*i:], uint32(v))
	}
	for i, v := range f.entryKey {
		le.PutUint32(buf[s.entryKey+4*i:], uint32(v))
	}
	for i, v := range f.portalOff {
		le.PutUint32(buf[s.portalOff+4*i:], uint32(v))
	}
	for i, p := range f.portals {
		at := s.portals + 16*i
		le.PutUint64(buf[at:], math.Float64bits(p.Pos))
		le.PutUint64(buf[at+8:], math.Float64bits(p.Dist))
	}
	if f.hasPathData {
		for i, v := range f.hops {
			le.PutUint32(buf[s2.hops+4*i:], uint32(v))
		}
		for i, v := range f.pathOff {
			le.PutUint32(buf[s2.pathOff+4*i:], uint32(v))
		}
		for i, v := range f.pathVert {
			le.PutUint32(buf[s2.pathVert+4*i:], uint32(v))
		}
		for i, x := range f.pathPos {
			le.PutUint64(buf[s2.pathPos+8*i:], math.Float64bits(x))
		}
	}
	return buf
}

// DecodeFlat parses a flat oracle produced by Encode. On a little-endian
// host with an 8-byte-aligned buffer the returned Flat aliases buf
// directly — no per-label rebuilding, no slice-of-slices allocation —
// so an oracle can serve straight from a mapped or fully read file; the
// per-decode work is validation plus Flat.derive: one linear pass
// building the sweep lane, and the walk layout on path-reporting
// images. The caller must not mutate buf afterwards. Misaligned buffers
// and big-endian hosts decode by copying instead; the result is
// identical.
//
// All CSR offsets and record orders are validated before the Flat is
// returned, so a malformed buffer yields an error, never a panicking
// or silently wrong Query.
func DecodeFlat(buf []byte) (*Flat, error) {
	if len(buf) < flatHeader || buf[0] != flatMagic {
		return nil, fmt.Errorf("oracle: flat: bad magic or truncated header")
	}
	withPaths := false
	switch buf[1] {
	case flatVersion:
	case flatVersion2:
		withPaths = true
		if len(buf) < flatHeaderV2 {
			return nil, fmt.Errorf("oracle: flat: truncated v2 header")
		}
	default:
		return nil, fmt.Errorf("oracle: flat: unsupported version %d", buf[1])
	}
	le := binary.LittleEndian
	n := le.Uint64(buf[8:])
	eps := math.Float64frombits(le.Uint64(buf[16:]))
	mode := le.Uint64(buf[24:])
	numKeys := le.Uint64(buf[32:])
	numEntries := le.Uint64(buf[40:])
	numPortals := le.Uint64(buf[48:])
	numPathVerts := uint64(0)
	if withPaths {
		numPathVerts = le.Uint64(buf[56:])
	}
	const maxCount = math.MaxInt32
	if n > maxCount || numKeys > maxCount || numEntries >= maxCount || numPortals > maxCount || numPathVerts > maxCount {
		return nil, fmt.Errorf("oracle: flat: header counts out of range (n=%d keys=%d entries=%d portals=%d pathverts=%d)",
			n, numKeys, numEntries, numPortals, numPathVerts)
	}
	var s flatSections
	var s2 flatSectionsV2
	if withPaths {
		s2 = flatLayoutV2(int(n), int(numKeys), int(numEntries), int(numPortals), int(numPathVerts))
		s = s2.flatSections
	} else {
		s = flatLayout(int(n), int(numKeys), int(numEntries), int(numPortals))
	}
	if len(buf) != s.total {
		return nil, fmt.Errorf("oracle: flat: size %d does not match header (want %d)", len(buf), s.total)
	}

	f := &Flat{n: int(n), eps: eps, mode: Mode(mode), hasPathData: withPaths}
	if hostLittleEndian && uintptr(unsafe.Pointer(&buf[0]))%8 == 0 {
		f.buf = buf
		if numKeys > 0 {
			f.keys = unsafe.Slice((*Key)(unsafe.Pointer(&buf[s.keys])), numKeys)
		}
		f.entryOff = unsafe.Slice((*int32)(unsafe.Pointer(&buf[s.entryOff])), n+1)
		if numEntries > 0 {
			f.entryKey = unsafe.Slice((*int32)(unsafe.Pointer(&buf[s.entryKey])), numEntries)
		}
		f.portalOff = unsafe.Slice((*int32)(unsafe.Pointer(&buf[s.portalOff])), numEntries+1)
		if numPortals > 0 {
			f.portals = unsafe.Slice((*Portal)(unsafe.Pointer(&buf[s.portals])), numPortals)
		}
		if withPaths {
			if numPortals > 0 {
				f.hops = unsafe.Slice((*int32)(unsafe.Pointer(&buf[s2.hops])), numPortals)
			}
			f.pathOff = unsafe.Slice((*int32)(unsafe.Pointer(&buf[s2.pathOff])), numKeys+1)
			if numPathVerts > 0 {
				f.pathVert = unsafe.Slice((*int32)(unsafe.Pointer(&buf[s2.pathVert])), numPathVerts)
				f.pathPos = unsafe.Slice((*float64)(unsafe.Pointer(&buf[s2.pathPos])), numPathVerts)
			}
		}
	} else {
		f.keys = make([]Key, numKeys)
		for i := range f.keys {
			at := s.keys + 8*i
			f.keys[i] = Key{
				Node:  int32(le.Uint32(buf[at:])),
				Phase: int16(le.Uint16(buf[at+4:])),
				Path:  int16(le.Uint16(buf[at+6:])),
			}
		}
		f.entryOff = make([]int32, n+1)
		for i := range f.entryOff {
			f.entryOff[i] = int32(le.Uint32(buf[s.entryOff+4*i:]))
		}
		f.entryKey = make([]int32, numEntries)
		for i := range f.entryKey {
			f.entryKey[i] = int32(le.Uint32(buf[s.entryKey+4*i:]))
		}
		f.portalOff = make([]int32, numEntries+1)
		for i := range f.portalOff {
			f.portalOff[i] = int32(le.Uint32(buf[s.portalOff+4*i:]))
		}
		f.portals = make([]Portal, numPortals)
		for i := range f.portals {
			at := s.portals + 16*i
			f.portals[i] = Portal{
				Pos:  math.Float64frombits(le.Uint64(buf[at:])),
				Dist: math.Float64frombits(le.Uint64(buf[at+8:])),
			}
		}
		if withPaths {
			f.hops = make([]int32, numPortals)
			for i := range f.hops {
				f.hops[i] = int32(le.Uint32(buf[s2.hops+4*i:]))
			}
			f.pathOff = make([]int32, numKeys+1)
			for i := range f.pathOff {
				f.pathOff[i] = int32(le.Uint32(buf[s2.pathOff+4*i:]))
			}
			f.pathVert = make([]int32, numPathVerts)
			for i := range f.pathVert {
				f.pathVert[i] = int32(le.Uint32(buf[s2.pathVert+4*i:]))
			}
			f.pathPos = make([]float64, numPathVerts)
			for i := range f.pathPos {
				f.pathPos[i] = math.Float64frombits(le.Uint64(buf[s2.pathPos+8*i:]))
			}
		}
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	f.derive()
	return f, nil
}

// validate bounds-checks every CSR offset so the hot path can index
// without guards, and checks the record orders and value ranges the
// merge and both sweeps assume, so a corrupt image is rejected instead
// of served.
func (f *Flat) validate() error {
	if f.entryOff[0] != 0 || int(f.entryOff[f.n]) != len(f.entryKey) {
		return fmt.Errorf("oracle: flat: entry offsets do not span the entry table")
	}
	for v := 0; v < f.n; v++ {
		if f.entryOff[v] > f.entryOff[v+1] {
			return fmt.Errorf("oracle: flat: entry offsets decrease at vertex %d", v)
		}
	}
	if f.portalOff[0] != 0 || int(f.portalOff[len(f.portalOff)-1]) != len(f.portals) {
		return fmt.Errorf("oracle: flat: portal offsets do not span the pool")
	}
	for e := 0; e < len(f.entryKey); e++ {
		if f.portalOff[e] > f.portalOff[e+1] {
			return fmt.Errorf("oracle: flat: portal offsets decrease at entry %d", e)
		}
		if int(f.entryKey[e]) < 0 || int(f.entryKey[e]) >= len(f.keys) {
			return fmt.Errorf("oracle: flat: entry %d references unknown key %d", e, f.entryKey[e])
		}
	}
	// Element-level checks on the record sections, not just the CSR
	// offsets that index them: an interned key must name a vertex of this
	// graph, each vertex's entry keys must strictly increase (the merge
	// join advances on that order), and each entry's portal records must
	// be NaN-free, non-negative and strictly increasing in Pos (both
	// sweeps consume runs in that order, and the sweep lane's suffix-mins
	// are folded from these values). +Inf stays legal: it is the
	// unreachable sentinel some constructions store in Dist.
	for i := range f.keys {
		if int(f.keys[i].Node) < 0 || int(f.keys[i].Node) >= f.n {
			return fmt.Errorf("oracle: flat: key %d names out-of-range vertex %d", i, f.keys[i].Node)
		}
	}
	for v := 0; v < f.n; v++ {
		for e := f.entryOff[v] + 1; e < f.entryOff[v+1]; e++ {
			if f.entryKey[e] <= f.entryKey[e-1] {
				return fmt.Errorf("oracle: flat: entry keys of vertex %d not strictly increasing", v)
			}
		}
	}
	for e := 0; e < len(f.entryKey); e++ {
		prev := math.Inf(-1)
		for i := f.portalOff[e]; i < f.portalOff[e+1]; i++ {
			p := f.portals[i]
			if math.IsNaN(p.Pos) || math.IsNaN(p.Dist) || p.Pos < 0 || p.Dist < 0 {
				return fmt.Errorf("oracle: flat: portal record %d is NaN or negative", i)
			}
			if p.Pos <= prev {
				return fmt.Errorf("oracle: flat: portal positions of entry %d not strictly increasing", e)
			}
			prev = p.Pos
		}
	}
	if f.hasPathData {
		return f.validatePaths()
	}
	return nil
}

// validatePaths bounds-checks the v2 sections: hop links stay inside the
// portal pool, the path geometry spans its CSR table, vertices are in
// range, and positions are NaN-free and non-decreasing per path. The
// walk itself still guards against semantic corruption (cycles, chains
// landing off their path) with static errors — validation here is what
// lets it index without bounds checks.
func (f *Flat) validatePaths() error {
	for i, h := range f.hops {
		if h < -1 || int(h) >= len(f.portals) {
			return fmt.Errorf("oracle: flat: hop %d links to out-of-range record %d", i, h)
		}
	}
	if f.pathOff[0] != 0 || int(f.pathOff[len(f.pathOff)-1]) != len(f.pathVert) {
		return fmt.Errorf("oracle: flat: path offsets do not span the geometry")
	}
	// Check the whole offset table before indexing through it: a later
	// decrease can push an earlier span past the geometry arrays.
	for k := 0; k+1 < len(f.pathOff); k++ {
		if f.pathOff[k] > f.pathOff[k+1] {
			return fmt.Errorf("oracle: flat: path offsets decrease at key %d", k)
		}
	}
	for k := 0; k+1 < len(f.pathOff); k++ {
		prev := math.Inf(-1)
		for x := f.pathOff[k]; x < f.pathOff[k+1]; x++ {
			if int(f.pathVert[x]) < 0 || int(f.pathVert[x]) >= f.n {
				return fmt.Errorf("oracle: flat: path vertex %d out of range", f.pathVert[x])
			}
			p := f.pathPos[x]
			if math.IsNaN(p) || p < prev {
				return fmt.Errorf("oracle: flat: path positions not sorted at key %d", k)
			}
			prev = p
		}
	}
	return nil
}
