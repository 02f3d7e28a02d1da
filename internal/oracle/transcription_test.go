package oracle

import (
	"math"
	"slices"
	"testing"
)

// TestImageTranscribesLabels pins every record of the serving image to
// Build's label set, on the frozen image and on its decode, across the
// grid, random-tree and mesh-apex families in both modes:
//
//   - Label(v) equals Labels[v] bit for bit (keys, Pos and Dist), minus
//     the hop records;
//   - every pool record's hop names the record owned by its Labels hop
//     vertex at the same key and position (-1 stays -1);
//   - every key's path geometry equals the build's separator path.
//
// Flat.QueryPath walks exactly these records, so together with
// TestWalkLayoutMatchesReference (the walk layout against a plain
// hop-by-hop walker) it covers every record the walk can read.
func TestImageTranscribesLabels(t *testing.T) {
	fams := laneFamilies(t)
	for _, fam := range []string{"grid", "random-tree", "mesh-apex"} {
		fx := fams[fam]
		for _, m := range laneModes {
			o, frozen := laneBuild(t, fx.g, fx.rot, m.mode)
			decoded, err := DecodeFlat(frozen.Encode())
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", fam, m.name, err)
			}
			checkTranscription(t, fam+"/"+m.name+"/frozen", o, frozen)
			checkTranscription(t, fam+"/"+m.name+"/decoded", o, decoded)
		}
	}
}

func checkTranscription(t *testing.T, name string, o *Oracle, f *Flat) {
	t.Helper()
	if f.N() != o.N {
		t.Fatalf("%s: image has %d vertices, labels %d", name, f.N(), o.N)
	}
	// owner and entry of every pool record.
	owner := make([]int32, len(f.portals))
	entry := make([]int32, len(f.portals))
	for v := 0; v < f.n; v++ {
		for e := f.entryOff[v]; e < f.entryOff[v+1]; e++ {
			for i := f.portalOff[e]; i < f.portalOff[e+1]; i++ {
				owner[i], entry[i] = int32(v), e
			}
		}
	}
	for v := range o.Labels {
		want := o.Labels[v].Entries
		got := f.Label(v).Entries
		if len(got) != len(want) {
			t.Fatalf("%s: Label(%d) has %d entries, labels %d", name, v, len(got), len(want))
		}
		for e := range want {
			if got[e].Key != want[e].Key || got[e].Hops != nil || len(got[e].Portals) != len(want[e].Portals) {
				t.Fatalf("%s: Label(%d) entry %d = %v/%d portals/hops %v, labels %v/%d portals",
					name, v, e, got[e].Key, len(got[e].Portals), got[e].Hops, want[e].Key, len(want[e].Portals))
			}
			base := f.portalOff[f.entryOff[v]+int32(e)]
			for x, p := range want[e].Portals {
				q := got[e].Portals[x]
				if math.Float64bits(q.Pos) != math.Float64bits(p.Pos) || math.Float64bits(q.Dist) != math.Float64bits(p.Dist) {
					t.Fatalf("%s: Label(%d) entry %d portal %d = %+v, labels %+v", name, v, e, x, q, p)
				}
				h, r := want[e].Hops[x], f.hops[base+int32(x)]
				if h < 0 {
					if r != -1 {
						t.Fatalf("%s: vertex %d entry %d portal %d is an anchor but its record hops to %d", name, v, e, x, r)
					}
					continue
				}
				if r < 0 || owner[r] != h || f.keys[f.entryKey[entry[r]]] != want[e].Key ||
					math.Float64bits(f.portals[r].Pos) != math.Float64bits(p.Pos) {
					t.Fatalf("%s: vertex %d entry %d portal %d hops to vertex %d at (%v, %v), record %d is not that record",
						name, v, e, x, h, want[e].Key, p.Pos, r)
				}
			}
		}
	}
	if len(f.keys) != len(o.paths) {
		t.Fatalf("%s: %d keys, %d separator paths", name, len(f.keys), len(o.paths))
	}
	for kid, sp := range o.paths {
		lo, hi := f.pathOff[kid], f.pathOff[kid+1]
		if f.keys[kid] != sp.key || !slices.Equal(f.pathVert[lo:hi], sp.verts) {
			t.Fatalf("%s: key %d (%v) path %v, build %v %v", name, kid, f.keys[kid], f.pathVert[lo:hi], sp.key, sp.verts)
		}
		for x, p := range sp.pos {
			if math.Float64bits(f.pathPos[int(lo)+x]) != math.Float64bits(p) {
				t.Fatalf("%s: key %v position %d = %v, build %v", name, sp.key, x, f.pathPos[int(lo)+x], p)
			}
		}
	}
}
