package oracle

import (
	"slices"
	"testing"
)

// refWalk is the plain hop-chain walk from pool record r: the owning
// vertex of every record up the hops to the root, the root's
// path-geometry index, and the number of light edges crossed when each
// record's heavy child is its largest subtree, lowest pool index on ties.
type refWalk struct {
	owners []int32
	anchor int32
	light  int
}

// referenceWalks computes refWalk for every pool record of f naively:
// subtree sizes by walking every record's chain to its root, the walks
// one hop at a time. It fails on a hop cycle, which a valid image never
// has.
func referenceWalks(t *testing.T, f *Flat) []refWalk {
	t.Helper()
	p := len(f.hops)
	owner := make([]int32, p)
	keyOf := make([]int32, p)
	for v := 0; v < f.n; v++ {
		for e := f.entryOff[v]; e < f.entryOff[v+1]; e++ {
			for i := f.portalOff[e]; i < f.portalOff[e+1]; i++ {
				owner[i], keyOf[i] = int32(v), f.entryKey[e]
			}
		}
	}
	size := make([]int, p)
	for r := range f.hops {
		for x, steps := int32(r), 0; x >= 0; x, steps = f.hops[x], steps+1 {
			if steps > p {
				t.Fatalf("record %d: hop cycle in a valid image", r)
			}
			size[x]++
		}
	}
	heavy := make([]int32, p)
	for i := range heavy {
		heavy[i] = -1
	}
	for c, h := range f.hops {
		if h >= 0 && (heavy[h] < 0 || size[c] > size[heavy[h]]) {
			heavy[h] = int32(c)
		}
	}
	out := make([]refWalk, p)
	for r := range f.hops {
		w := refWalk{anchor: -1}
		x := int32(r)
		for {
			w.owners = append(w.owners, owner[x])
			h := f.hops[x]
			if h < 0 {
				break
			}
			if heavy[h] != x {
				w.light++
			}
			x = h
		}
		lo, hi := f.pathOff[keyOf[x]], f.pathOff[keyOf[x]+1]
		if idx, err := pathIndexAt(f.pathPos[lo:hi], f.pathVert[lo:hi], f.portals[x].Pos, owner[x]); err == nil {
			w.anchor = int32(idx)
		}
		out[r] = w
	}
	return out
}

// expandWalk replays the derived layout from a walk entry the way
// QueryPath consumes it — copy a segment's owner run, follow its
// trailer — and returns the owners and the segment count.
func expandWalk(t *testing.T, f *Flat, w startRec) ([]int32, int) {
	t.Helper()
	var owners []int32
	x, e := w.slot, w.end
	for segs := 1; ; segs++ {
		if segs > len(f.walkBlk) || x < 0 || x > e || int(e)+2 >= len(f.walkBlk) {
			t.Fatalf("walk from slot %d: malformed segment [%d, %d] after %d segments", w.slot, x, e, segs)
		}
		owners = append(owners, f.walkBlk[x:e+1]...)
		if f.walkBlk[e+1] < 0 {
			return owners, segs
		}
		x, e = f.walkBlk[e+1], f.walkBlk[e+2]
	}
}

// TestWalkLayoutMatchesReference pins the derived walk layout to a plain
// hop-chain walker rather than to how it is built: for every pool
// record, the walk expanded from walkFrom/walkBlk must visit the
// reference's owners in order and report its anchor and depth, and it
// must take 1 + (light edges crossed) segments — one per heavy chain it
// touches. Grid, random-tree and 3-D-mesh fixtures in both modes, on the
// frozen image and on its decode.
func TestWalkLayoutMatchesReference(t *testing.T) {
	fams := laneFamilies(t)
	for _, fam := range []string{"grid", "random-tree", "mesh-apex"} {
		fx := fams[fam]
		for _, m := range laneModes {
			_, frozen := laneBuild(t, fx.g, fx.rot, m.mode)
			decoded, err := DecodeFlat(frozen.Encode())
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", fam, m.name, err)
			}
			for _, f := range []*Flat{frozen, decoded} {
				ref := referenceWalks(t, f)
				for r, want := range ref {
					w := f.walkFrom[r]
					if w.slot < 0 {
						t.Fatalf("%s/%s: record %d has no walk", fam, m.name, r)
					}
					owners, segs := expandWalk(t, f, w)
					if !slices.Equal(owners, want.owners) {
						t.Fatalf("%s/%s: record %d walks %v, reference %v", fam, m.name, r, owners, want.owners)
					}
					if w.anchor != want.anchor || int(w.depth) != len(want.owners) {
						t.Fatalf("%s/%s: record %d anchor/depth %d/%d, reference %d/%d",
							fam, m.name, r, w.anchor, w.depth, want.anchor, len(want.owners))
					}
					if segs != 1+want.light {
						t.Fatalf("%s/%s: record %d walk takes %d segments, want 1 + %d light edges",
							fam, m.name, r, segs, want.light)
					}
				}
			}
		}
	}
}
