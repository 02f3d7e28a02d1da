// Path reporting: the per-portal hop records laid down at build time
// turn the distance oracle into a path-reporting one (after the style of
// Elkin–Neiman–Wulff-Nilsen). Flat.QueryPath first runs the usual
// merge-join, tracking the argmin instead of just the min (queryArg
// folding pairMinArg); the reported walk is then assembled in
// O(len(path)): follow the u-side hop chain to its anchor
// on the certifying separator path, read the path's own vertices between
// the two anchors off the stored geometry, and append the v-side chain
// reversed. Every hop record's distance is an exact shortest distance to
// its anchor and every hop edge telescopes, so the walk's weight equals
// the reported (1+ε) estimate up to float rounding.
package oracle

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"pathsep/internal/core"
)

// Static walk errors: corrupt or inconsistent path records are reported,
// never panicked on, and reporting them allocates nothing.
var (
	errPathCycle    = errors.New("oracle: path records form a cycle")
	errPathRecord   = errors.New("oracle: dangling path record")
	errPathGeometry = errors.New("oracle: path geometry mismatch")
)

// NumHops returns the hop-chain section length (one record per portal).
func (f *Flat) NumHops() int { return len(f.hops) }

// NumPathVerts returns the total separator-path geometry length across
// all keys (the CSR payload shared by the path_vert and path_pos
// sections).
func (f *Flat) NumPathVerts() int { return len(f.pathVert) }

// pairMinArg is pairMin plus the argmin: the indices into a and b whose
// combination achieved the returned minimum (-1, -1 when none did). The
// candidate values and their fold order are exactly pairMin's, so the
// returned minimum is bit-identical to it.
func pairMinArg(a, b []Portal) (float64, int, int) {
	best := math.Inf(1)
	bestA, bestB := -1, -1
	minA, minB := math.Inf(1), math.Inf(1)
	minAi, minBi := -1, -1
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j >= len(b) || (i < len(a) && a[i].Pos <= b[j].Pos) {
			if est := a[i].Dist + a[i].Pos + minB; est < best {
				best = est
				bestA, bestB = i, minBi
			}
			if v := a[i].Dist - a[i].Pos; v < minA {
				minA = v
				minAi = i
			}
			i++
		} else {
			if est := b[j].Dist + b[j].Pos + minA; est < best {
				best = est
				bestA, bestB = minAi, j
			}
			if v := b[j].Dist - b[j].Pos; v < minB {
				minB = v
				minBi = j
			}
			j++
		}
	}
	return best, bestA, bestB
}

// pathIndexAt locates the path index whose position equals p and whose
// vertex is the walked-to anchor. Positions are copied bit-for-bit from
// the same prefix sums into both the portal records and the geometry, so
// the equality search is exact.
func pathIndexAt(pos []float64, verts []int32, p float64, anchor int32) (int, error) {
	x := sort.SearchFloat64s(pos, p)
	for ; x < len(pos) && core.SameDist(pos[x], p); x++ {
		if verts[x] == anchor {
			return x, nil
		}
	}
	return 0, errPathGeometry
}

// queryArg is query plus the argmin: the same int32 key merge, calling
// pairMinArg on each matched pair's stored portal runs, and returning
// the key ID and the two portal-pool indices whose combination achieved
// the minimum. Keys are visited in keyLess order and every fold is
// pairMinArg's, whose minimum is pairMin's bit for bit, so the distance
// equals QueryLabels' and query's (pairMin and sweepRec evaluate the
// same candidates). A finite minimum always names real indices on
// both sides: Dist and Pos are never negative (Build measures them, and
// validate rejects decoded images otherwise), so a candidate without a
// partner is +Inf and never wins.
func (f *Flat) queryArg(u, v int) (float64, int32, int32, int32) {
	best := math.Inf(1)
	kid, bpa, bpb := int32(-1), int32(-1), int32(-1)
	ek, po, ps := f.entryKey, f.portalOff, f.portals
	i, iEnd := int(f.entryOff[u]), int(f.entryOff[u+1])
	j, jEnd := int(f.entryOff[v]), int(f.entryOff[v+1])
	for i < iEnd && j < jEnd {
		a, b := ek[i], ek[j]
		switch {
		case a == b:
			ia, ib := po[i], po[j]
			if est, x, y := pairMinArg(ps[ia:po[i+1]], ps[ib:po[j+1]]); est < best {
				best, kid, bpa, bpb = est, a, ia+int32(x), ib+int32(y)
			}
			i++
			j++
		case a < b:
			i++
		default:
			j++
		}
	}
	return best, kid, bpa, bpb
}

// QueryPath returns the same (1+ε)-approximate distance as Query
// together with a witness walk from u to v realizing it, written into
// buf. With a reused buffer it runs at zero allocations per query: the
// merge-join is queryArg, the walk is O(len(path)), and all errors are
// static. Both chains' anchors and output lengths are known before
// either walk runs (per-record precompute), so the output is sized once
// and every piece lands directly in its final position: the u-chain
// left to right from the front, the v-chain right to left from the
// back, the path's middle segment between them. The two chains are
// walked interleaved, one segment each per turn — their lead cache
// misses overlap instead of serializing. Out-of-range vertex IDs and
// disconnected pairs report (+Inf, empty, nil).
func (f *Flat) QueryPath(u, v int, buf []int32) (float64, []int32, error) {
	out := buf[:0]
	if u < 0 || v < 0 || u >= f.n || v >= f.n {
		return math.Inf(1), out, nil
	}
	if u == v {
		return 0, append(out, int32(u)), nil
	}
	est, kid, bpa, bpb := f.queryArg(u, v)
	if math.IsInf(est, 1) {
		return est, out, nil
	}
	if bpa < 0 || bpb < 0 {
		return est, out, errPathRecord
	}
	wa, wb := f.walkFrom[bpa], f.walkFrom[bpb]
	if wa.slot < 0 || wb.slot < 0 {
		return est, out, errPathRecord
	}
	if wa.anchor < 0 || wb.anchor < 0 {
		return est, out, errPathGeometry
	}
	ia, ib := wa.anchor, wb.anchor
	mid := ib - ia - 1
	if ia > ib {
		mid = ia - ib - 1
	}
	// When the chains meet at the same path vertex (ia == ib, mid -1)
	// the v-side anchor duplicates the u-side one; the v-chain's last
	// write then lands on the u-chain's anchor cell with the same value.
	need := int(wa.depth) + int(wb.depth)
	if mid > 0 {
		need += int(mid)
	} else if ia == ib {
		need--
	}
	if cap(out) >= need {
		out = out[:need]
	} else {
		out = make([]int32, need)
	}
	blk := f.walkBlk
	xa, ea := wa.slot, wa.end
	xb, eb := wb.slot, wb.end
	wp, bp := 0, need-1
	aDone, bDone := false, false
	for segs := 0; !aDone || !bDone; segs++ {
		if segs > len(blk) {
			return est, out[:0], errPathCycle
		}
		if !aDone {
			L := int(ea-xa) + 1
			if wp+L > need {
				return est, out[:0], errPathCycle
			}
			copy(out[wp:wp+L], blk[xa:ea+1])
			wp += L
			if q := blk[ea+1]; q >= 0 {
				xa, ea = q, blk[ea+2]
			} else {
				aDone = true
			}
		}
		if !bDone {
			if bp-int(eb-xb) < 0 {
				return est, out[:0], errPathCycle
			}
			for i := xb; i <= eb; i++ {
				out[bp] = blk[i]
				bp--
			}
			if q := blk[eb+1]; q >= 0 {
				xb, eb = q, blk[eb+2]
			} else {
				bDone = true
			}
		}
	}
	if mid > 0 {
		verts := f.pathVert[f.pathOff[kid]:f.pathOff[kid+1]]
		if ia < ib {
			copy(out[wp:wp+int(mid)], verts[ia+1:ib])
		} else {
			for x := ia - 1; x > ib; x-- {
				out[wp] = verts[x]
				wp++
			}
		}
	}
	return est, out, nil
}

// findRecord locates vertex w's pool record for key kid at position pos,
// or -1 when absent.
func (f *Flat) findRecord(w int, kid int32, pos float64) int32 {
	if w < 0 || w >= f.n {
		return -1
	}
	lo, hi := int(f.entryOff[w]), int(f.entryOff[w+1])
	e := lo + sort.Search(hi-lo, func(i int) bool { return f.entryKey[lo+i] >= kid })
	if e == hi || f.entryKey[e] != kid {
		return -1
	}
	plo, phi := int(f.portalOff[e]), int(f.portalOff[e+1])
	ps := f.portals[plo:phi]
	x := sort.Search(len(ps), func(i int) bool { return ps[i].Pos >= pos })
	if x < len(ps) && core.SameDist(ps[x].Pos, pos) {
		return int32(plo + x)
	}
	return -1
}

// freezePaths compiles the hop chains and path geometry into the flat
// form: hop vertex IDs resolve to portal-pool indices (one array lookup
// per walk step at query time), and the separator-path vertex/position
// tables land in CSR form aligned with the interned key order. Any
// inconsistency — a hop with no record at the target vertex, geometry
// that does not cover the key set — fails the freeze: an image without
// sound path records is never produced.
func (f *Flat) freezePaths(o *Oracle) error {
	if len(o.paths) != len(f.keys) {
		return fmt.Errorf("oracle: freeze: %d separator paths for %d keys", len(o.paths), len(f.keys))
	}
	nv := 0
	for i := range o.paths {
		if o.paths[i].key != f.keys[i] {
			return fmt.Errorf("oracle: freeze: separator path %d has key %v, want %v", i, o.paths[i].key, f.keys[i])
		}
		nv += len(o.paths[i].verts)
	}
	pathOff := make([]int32, len(f.keys)+1)
	pathVert := make([]int32, 0, nv)
	pathPos := make([]float64, 0, nv)
	for i := range o.paths {
		pathVert = append(pathVert, o.paths[i].verts...)
		pathPos = append(pathPos, o.paths[i].pos...)
		pathOff[i+1] = int32(len(pathVert))
	}
	hops := make([]int32, len(f.portals))
	ei, pi := 0, 0
	for v := range o.Labels {
		for _, e := range o.Labels[v].Entries {
			if len(e.Hops) != len(e.Portals) {
				return fmt.Errorf("oracle: freeze: vertex %d has %d hops for %d portals", v, len(e.Hops), len(e.Portals))
			}
			kid := f.entryKey[ei]
			for x := range e.Hops {
				if h := e.Hops[x]; h < 0 {
					hops[pi] = -1
				} else {
					t := f.findRecord(int(h), kid, e.Portals[x].Pos)
					if t < 0 {
						return fmt.Errorf("oracle: freeze: hop from vertex %d to %d has no record", v, h)
					}
					hops[pi] = t
				}
				pi++
			}
			ei++
		}
	}
	f.hops, f.pathOff, f.pathVert, f.pathPos = hops, pathOff, pathVert, pathPos
	return nil
}
