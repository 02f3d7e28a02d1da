// Package labeling implements EXACT distance labels for weighted trees —
// the base case of the paper's object-location program (its introduction
// cites tree routing/labeling [20, 32] as the class that started the
// field, and trees are the 1-path-separable base of Definition 1).
//
// The construction is the centroid-decomposition labeling: each vertex
// stores, for every centroid on its O(log n) centroid-path, the exact
// distance to that centroid. Two labels answer an exact distance query
// because the shortest path between u and v passes through their deepest
// common centroid. Labels carry O(log n) entries; queries are O(log n).
package labeling

import (
	"fmt"
	"math"

	"pathsep/internal/graph"
	"pathsep/internal/shortest"
)

// Entry is one centroid record: the centroid's ID in the centroid tree
// and the exact distance from the labeled vertex. Hop is the next vertex
// (original ID) on the unique tree path from the labeled vertex toward
// that centroid, or -1 when the labeled vertex IS the centroid — the
// parent link that lets QueryPath rebuild the witness path by chasing
// hops, mirroring the portal hop records of the distance oracle.
type Entry struct {
	Centroid int32
	Hop      int32
	Dist     float64
}

// TreeLabel is a vertex's exact distance label: entries ordered from the
// root centroid down (so two labels share a prefix of centroid IDs).
type TreeLabel struct {
	Entries []Entry
}

// Size returns the number of entries.
func (l *TreeLabel) Size() int { return len(l.Entries) }

// TreeLabeling is the full labeling of a tree.
type TreeLabeling struct {
	Labels []TreeLabel
	n      int
	depth  int
}

// BuildTree computes the centroid-decomposition labeling of a weighted
// tree.
func BuildTree(g *graph.Graph) (*TreeLabeling, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("labeling: empty graph")
	}
	if g.M() != n-1 || !graph.IsConnected(g) {
		return nil, fmt.Errorf("labeling: not a tree (n=%d, m=%d)", n, g.M())
	}
	t := &TreeLabeling{Labels: make([]TreeLabel, n), n: n}
	// Recursive centroid decomposition over induced subtrees.
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	type item struct {
		vertices []int
		depth    int
	}
	queue := []item{{vertices: all, depth: 0}}
	centroidSeq := int32(0)
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if len(it.vertices) == 0 {
			continue
		}
		if it.depth > t.depth {
			t.depth = it.depth
		}
		sub := graph.Induced(g, it.vertices)
		c := centroidOf(sub.G)
		id := centroidSeq
		centroidSeq++
		// Exact distances from the centroid within the subtree.
		tr := shortest.Dijkstra(sub.G, c)
		for sv, ov := range sub.Orig {
			if math.IsInf(tr.Dist[sv], 1) {
				return nil, fmt.Errorf("labeling: subtree disconnected")
			}
			hop := int32(-1)
			if p := tr.Parent[sv]; p >= 0 {
				hop = int32(sub.Orig[p])
			}
			t.Labels[ov].Entries = append(t.Labels[ov].Entries, Entry{Centroid: id, Hop: hop, Dist: tr.Dist[sv]})
		}
		for _, comp := range graph.ComponentsAfterRemoval(sub.G, []int{c}) {
			lifted := make([]int, len(comp))
			for i, v := range comp {
				lifted[i] = sub.Orig[v]
			}
			queue = append(queue, item{vertices: lifted, depth: it.depth + 1})
		}
	}
	return t, nil
}

func centroidOf(g *graph.Graph) int {
	n := g.N()
	if n == 1 {
		return 0
	}
	parent := make([]int, n)
	order := make([]int, 0, n)
	for i := range parent {
		parent[i] = -2
	}
	parent[0] = -1
	stack := []int{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, v)
		for _, h := range g.Neighbors(v) {
			if parent[h.To] == -2 {
				parent[h.To] = v
				stack = append(stack, h.To)
			}
		}
	}
	size := make([]int, n)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		size[v]++
		if parent[v] >= 0 {
			size[parent[v]] += size[v]
		}
	}
	v := 0
	for {
		next := -1
		for _, h := range g.Neighbors(v) {
			if parent[h.To] == v && size[h.To] > n/2 {
				next = h.To
				break
			}
		}
		if next < 0 {
			return v
		}
		v = next
	}
}

// Query returns the exact distance between u and v from the stored
// labels: the minimum over shared centroids of the distance sums (the
// deepest shared centroid lies on the u-v path and realizes the minimum).
// Out-of-range vertex IDs report +Inf rather than panicking.
func (t *TreeLabeling) Query(u, v int) float64 {
	if u < 0 || v < 0 || u >= len(t.Labels) || v >= len(t.Labels) {
		return math.Inf(1)
	}
	if u == v {
		return 0
	}
	return QueryTreeLabels(&t.Labels[u], &t.Labels[v])
}

// QueryTreeLabels answers from two labels alone (distributed form).
// Returns +Inf when the labels share no centroid (different trees).
func QueryTreeLabels(a, b *TreeLabel) float64 {
	best := math.Inf(1)
	// Labels are root-down sequences; shared centroids form a prefix of
	// each (the centroid paths diverge once and never re-join), but scan
	// generally to stay robust.
	bByID := make(map[int32]float64, len(b.Entries))
	for _, e := range b.Entries {
		bByID[e.Centroid] = e.Dist
	}
	for _, e := range a.Entries {
		if d, ok := bByID[e.Centroid]; ok {
			if s := e.Dist + d; s < best {
				best = s
			}
		}
	}
	return best
}

// queryTreeLabelsArg is QueryTreeLabels plus the centroid realizing the
// minimum — the same fold in the same order, so the reported distance is
// bit-identical to the distance-only query.
func queryTreeLabelsArg(a, b *TreeLabel) (float64, int32) {
	best := math.Inf(1)
	bestC := int32(-1)
	bByID := make(map[int32]float64, len(b.Entries))
	for _, e := range b.Entries {
		bByID[e.Centroid] = e.Dist
	}
	for _, e := range a.Entries {
		if d, ok := bByID[e.Centroid]; ok {
			if s := e.Dist + d; s < best {
				best = s
				bestC = e.Centroid
			}
		}
	}
	return best, bestC
}

// findEntry returns the label's record for centroid c. Labels hold
// O(log n) entries, so a linear scan beats a search.
func findEntry(l *TreeLabel, c int32) (Entry, bool) {
	for _, e := range l.Entries {
		if e.Centroid == c {
			return e, true
		}
	}
	return Entry{}, false
}

// walkTo climbs from vertex x to centroid c by hop links, appending every
// vertex on the way — x first, c last. The step budget catches hand-built
// labelings whose hop links cycle.
func (t *TreeLabeling) walkTo(x int, c int32, buf []int32) ([]int32, error) {
	for steps := 0; steps < t.n; steps++ {
		buf = append(buf, int32(x))
		e, ok := findEntry(&t.Labels[x], c)
		if !ok {
			return buf, fmt.Errorf("labeling: vertex %d has no entry for centroid %d", x, c)
		}
		if e.Hop < 0 {
			return buf, nil
		}
		if int(e.Hop) >= len(t.Labels) {
			return buf, fmt.Errorf("labeling: vertex %d hop %d out of range", x, e.Hop)
		}
		x = int(e.Hop)
	}
	return buf, fmt.Errorf("labeling: hop chain to centroid %d exceeds %d steps", c, t.n)
}

// QueryPath returns the exact distance between u and v together with the
// unique u-v tree path, rebuilt by chasing hop links up to the deepest
// shared centroid from both ends. The path is appended to buf (pass nil,
// or reuse a buffer to amortize); it starts at u and ends at v, and its
// edge-weight sum telescopes to the reported distance. Out-of-range IDs
// report (+Inf, empty); u == v reports (0, [u]). The distance is
// bit-identical to Query. Errors only surface on inconsistent hop links
// (hand-built labels), never on BuildTree output.
func (t *TreeLabeling) QueryPath(u, v int, buf []int32) (float64, []int32, error) {
	buf = buf[:0]
	if u < 0 || v < 0 || u >= len(t.Labels) || v >= len(t.Labels) {
		return math.Inf(1), buf, nil
	}
	if u == v {
		return 0, append(buf, int32(u)), nil
	}
	dist, c := queryTreeLabelsArg(&t.Labels[u], &t.Labels[v])
	if math.IsInf(dist, 1) {
		return dist, buf, nil
	}
	buf, err := t.walkTo(u, c, buf)
	if err != nil {
		return dist, buf[:0], err
	}
	mark := len(buf)
	buf, err = t.walkTo(v, c, buf)
	if err != nil {
		return dist, buf[:0], err
	}
	// The second climb arrives at the centroid already placed by the
	// first: reverse it in place and drop its copy of c.
	tail := buf[mark:]
	for i, j := 0, len(tail)-1; i < j; i, j = i+1, j-1 {
		tail[i], tail[j] = tail[j], tail[i]
	}
	copy(tail, tail[1:])
	return dist, buf[:len(buf)-1], nil
}

// MaxLabelSize returns the largest label length — O(log n) by the
// halving of centroid decompositions.
func (t *TreeLabeling) MaxLabelSize() int {
	best := 0
	for i := range t.Labels {
		if s := t.Labels[i].Size(); s > best {
			best = s
		}
	}
	return best
}

// Depth returns the centroid-decomposition depth.
func (t *TreeLabeling) Depth() int { return t.depth }
