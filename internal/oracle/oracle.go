// Package oracle implements Theorem 2 of the paper: (1+ε)-approximate
// distance labels and the distance oracle they form, built on the k-path
// separator decomposition tree.
//
// For every node H of the decomposition tree, every phase i of its
// separator, and every path Q of phase i, a vertex w that survives phases
// j<i of H stores a small set of "portals" on Q: pairs (position along Q,
// exact distance from w in the residual graph J = H minus earlier phases).
// Since Q is a shortest path in J, the distance along Q between two of its
// vertices is the difference of their positions, so two labels suffice to
// upper-bound any shortest path that crosses Q. The first separator path
// crossed by a shortest u-v path certifies a (1+ε)-approximation.
//
// Two construction modes are provided:
//
//   - CoverExact: per-vertex ε-covers built from exact residual distances
//     (Thorup-style connections). Provably (1+ε); quadratic-ish
//     construction, intended for moderate n and for auditing.
//   - CoverPortal: a fixed number of evenly spaced portals per path plus
//     each vertex's closest attachment to the path. One Dijkstra per
//     portal; scalable. Stretch is measured rather than proven.
package oracle

import (
	"fmt"
	"math"
	"sort"
	"time"

	"pathsep/internal/core"
	"pathsep/internal/graph"
	"pathsep/internal/obs"
	"pathsep/internal/par"
	"pathsep/internal/shortest"
)

// Mode selects the portal construction.
type Mode int

const (
	// CoverExact builds per-vertex ε-covers with exact residual distances;
	// the (1+ε) guarantee of Theorem 2 holds.
	CoverExact Mode = iota
	// CoverPortal places a fixed number of evenly spaced portals per path;
	// scalable, with measured stretch.
	CoverPortal
)

// String names the mode the way the CLI flags spell it.
func (m Mode) String() string {
	switch m {
	case CoverExact:
		return "exact"
	case CoverPortal:
		return "portal"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Options configures Build.
type Options struct {
	// Epsilon is the ε of the (1+ε) approximation; must be > 0.
	Epsilon float64
	// Mode selects the construction; CoverExact by default.
	Mode Mode
	// PortalsPerPath bounds the evenly spaced portals per path in
	// CoverPortal mode; 0 means ceil(4/ε).
	PortalsPerPath int
	// Metrics, when non-nil, receives build-time accounting under
	// "oracle.*", "shortest.*" and "build.*" and attaches query-time
	// latency and portal histograms to the oracle (equivalent to calling
	// SetMetrics).
	Metrics *obs.Registry
	// Workers bounds the worker pool that fans out the per-separator-path
	// (and, in CoverExact mode, per-vertex) Dijkstra tasks. Task outputs
	// are merged in a fixed order, so the oracle encoding is bit-identical
	// for every worker count. 0 means runtime.GOMAXPROCS(0); 1 forces the
	// serial reference build.
	Workers int
}

// Key identifies a separator path: decomposition node, phase index within
// its separator, and path index within the phase.
type Key struct {
	Node  int32
	Phase int16
	Path  int16
}

func keyLess(a, b Key) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Phase != b.Phase {
		return a.Phase < b.Phase
	}
	return a.Path < b.Path
}

// Portal is one label entry: a position along the separator path (prefix
// weight from the path start) and the exact distance from the labeled
// vertex to that path vertex in the residual graph.
type Portal struct {
	Pos  float64
	Dist float64
}

// Entry is the portal list a vertex stores for one separator path,
// sorted by position. Hops, when present, is parallel to Portals:
// Hops[i] is the next vertex on a shortest walk from the labeled vertex
// toward the path vertex Portals[i] points at, or -1 when the labeled
// vertex is that path vertex itself. Path-reporting builds fill it; a
// nil (or length-mismatched) Hops marks a distance-only legacy entry.
type Entry struct {
	Key     Key
	Portals []Portal
	Hops    []int32
}

// Label is the complete distance label of one vertex: entries sorted by
// Key. Two labels alone answer an approximate distance query
// (the distributed distance-labeling scheme of Theorem 2).
type Label struct {
	Entries []Entry
}

// NumPortals returns the total portal count of the label (its size in
// words, up to constants).
func (l *Label) NumPortals() int {
	total := 0
	for _, e := range l.Entries {
		total += len(e.Portals)
	}
	return total
}

// sepPath is one separator path in root-graph vertex IDs with the
// prefix-weight position of every path vertex: the geometry needed to
// expand the portal-to-portal middle segment of a reported path.
type sepPath struct {
	key   Key
	verts []int32
	pos   []float64
}

// Oracle is the centralized distance oracle: all labels plus the
// decomposition tree metadata.
type Oracle struct {
	Labels []Label
	N      int
	Eps    float64
	mode   Mode
	// paths, when hasPathData, holds every separator path sorted by
	// keyLess; QueryPath reads the middle segment of a reported walk off
	// it. pos aliases the planning pass's prefix sums, so positions match
	// portal Pos values bit for bit.
	paths       []sepPath
	hasPathData bool
	// Query-time instruments, cached so the hot path costs one nil check
	// when metrics are disabled. Set via SetMetrics / Options.Metrics.
	qLatency *obs.Histogram
	qPortals *obs.Histogram
}

// SetMetrics attaches (or, with nil, detaches) query-time metrics:
// "oracle.query_ns" observes per-query latency and
// "oracle.query_portals" the number of portals compared per query.
func (o *Oracle) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		o.qLatency, o.qPortals = nil, nil
		return
	}
	o.qLatency = reg.Histogram("oracle.query_ns")
	o.qPortals = reg.Histogram("oracle.query_portals")
}

// rec is one deferred label entry produced by a parallel build task:
// add(v, k, p, h) to be replayed by the merge pass. h is the hop vertex
// of the record (-1 when the record is a path vertex's self entry).
type rec struct {
	v int
	k Key
	p Portal
	h int32
}

// Build constructs the oracle from a decomposition tree.
//
// Construction is a three-stage pipeline. A serial planning pass walks the
// tree, builds every residual graph J and path geometry, emits the
// zero-distance self entries, and collects one closure per unit of
// Dijkstra work: per separator path in CoverPortal mode, per residual
// vertex in CoverExact mode. The tasks then fan out on a bounded worker
// pool (Options.Workers), each returning its label records into its own
// slot, and a serial merge pass replays the slots in task order. Labels
// are canonicalized by normalizeLabel, so the encoded oracle is
// bit-identical for every worker count — the differential tests compare
// Encode() bytes of workers=1 and workers=N builds.
func Build(t *core.Tree, opt Options) (*Oracle, error) {
	if !(opt.Epsilon > 0) || math.IsInf(opt.Epsilon, 1) {
		return nil, fmt.Errorf("oracle: epsilon must be positive and finite, got %v", opt.Epsilon)
	}
	span := opt.Metrics.StartSpan("oracle.build")
	defer span.End()
	col := shortest.NewCollector(opt.Metrics)
	pool := par.New(opt.Workers, opt.Metrics)
	defer pool.Finish()
	o := &Oracle{
		Labels: make([]Label, t.G.N()),
		N:      t.G.N(),
		Eps:    opt.Epsilon,
		mode:   opt.Mode,
	}
	portalsPerPath := opt.PortalsPerPath
	if portalsPerPath <= 0 {
		portalsPerPath = int(math.Ceil(4 / opt.Epsilon))
	}

	add := func(rootV int, k Key, p Portal, hop int32) {
		lbl := &o.Labels[rootV]
		if len(lbl.Entries) == 0 || lbl.Entries[len(lbl.Entries)-1].Key != k {
			lbl.Entries = append(lbl.Entries, Entry{Key: k})
		}
		e := &lbl.Entries[len(lbl.Entries)-1]
		e.Portals = append(e.Portals, p)
		e.Hops = append(e.Hops, hop)
	}

	// Stage 1: serial planning — residual graphs, path geometry, self
	// entries, and the task list.
	var tasks []func() []rec
	for _, node := range t.Nodes {
		if node.Sep == nil {
			continue
		}
		local := node.Sub.G
		removed := make(map[int]bool)
		for phaseIdx, phase := range node.Sep.Phases {
			keep := make([]int, 0, local.N())
			for v := 0; v < local.N(); v++ {
				if !removed[v] {
					keep = append(keep, v)
				}
			}
			sub := graph.Induced(local, keep) // residual J
			j := sub.G
			toJ := make(map[int]int, len(sub.Orig))
			for jv, lv := range sub.Orig {
				toJ[lv] = jv
			}
			// roots[jv] is the root-graph ID of residual vertex jv,
			// precomputed so tasks touch no shared maps.
			roots := make([]int, j.N())
			for jv := range roots {
				roots[jv] = node.Sub.Orig[sub.Orig[jv]]
			}

			// Per-path J-local vertex lists and positions.
			infos := make([]pathInfo, len(phase.Paths))
			for pi, p := range phase.Paths {
				info := pathInfo{
					verts: make([]int, len(p.Vertices)),
					pos:   make([]float64, len(p.Vertices)),
				}
				for x, lv := range p.Vertices {
					jv, ok := toJ[lv]
					if !ok {
						return nil, fmt.Errorf("oracle: node %d phase %d path %d: vertex removed earlier", node.ID, phaseIdx, pi)
					}
					info.verts[x] = jv
					if x > 0 {
						w, ok := j.EdgeWeight(info.verts[x-1], jv)
						if !ok {
							return nil, fmt.Errorf("oracle: node %d phase %d path %d: non-edge on path", node.ID, phaseIdx, pi)
						}
						info.pos[x] = info.pos[x-1] + w
					}
				}
				infos[pi] = info
				k := Key{Node: int32(node.ID), Phase: int16(phaseIdx), Path: int16(pi)}
				// Self entries: every path vertex is its own zero-distance
				// portal.
				sp := sepPath{key: k, verts: make([]int32, len(info.verts)), pos: info.pos}
				for x, jv := range info.verts {
					sp.verts[x] = int32(roots[jv])
					add(roots[jv], k, Portal{Pos: info.pos[x], Dist: 0}, -1)
				}
				o.paths = append(o.paths, sp)
			}

			switch opt.Mode {
			case CoverPortal:
				for pi := range infos {
					info := infos[pi]
					k := Key{Node: int32(node.ID), Phase: int16(phaseIdx), Path: int16(pi)}
					tasks = append(tasks, func() []rec {
						var out []rec
						// Closest-attachment entries via one multi-source run.
						trQ := shortest.MultiSource(j, info.verts)
						col.Record(trQ)
						posOf := make(map[int]float64, len(info.verts))
						for x, jv := range info.verts {
							posOf[jv] = info.pos[x]
						}
						for w := 0; w < j.N(); w++ {
							src := trQ.Source[w]
							if src < 0 || core.IsZeroDist(trQ.Dist[w]) {
								continue
							}
							// The hop is w's parent in the multi-source
							// forest: it shares w's source, so it carries a
							// record at the same (key, position) and the hop
							// chain telescopes down to the source itself.
							out = append(out, rec{roots[w], k, Portal{Pos: posOf[src], Dist: trQ.Dist[w]}, int32(roots[trQ.Parent[w]])})
						}
						// Evenly spaced portals (by weight), endpoints included.
						sel := selectEvenPortals(info.pos, portalsPerPath)
						for _, x := range sel {
							tr := shortest.Dijkstra(j, info.verts[x])
							col.Record(tr)
							for w := 0; w < j.N(); w++ {
								if math.IsInf(tr.Dist[w], 1) || core.IsZeroDist(tr.Dist[w]) {
									continue
								}
								out = append(out, rec{roots[w], k, Portal{Pos: info.pos[x], Dist: tr.Dist[w]}, int32(roots[tr.Parent[w]])})
							}
						}
						return out
					})
				}
			default: // CoverExact
				node := node
				for w := 0; w < j.N(); w++ {
					w := w
					tasks = append(tasks, func() []rec {
						var out []rec
						tr := shortest.Dijkstra(j, w)
						col.Record(tr)
						for pi, info := range infos {
							k := Key{Node: int32(node.ID), Phase: int16(phaseIdx), Path: int16(pi)}
							for _, x := range epsCover(tr.Dist, info, opt.Epsilon) {
								if info.verts[x] == w {
									continue // self entry already present
								}
								path := tr.PathTo(info.verts[x])
								out = append(out, rec{roots[w], k, Portal{Pos: info.pos[x], Dist: tr.Dist[info.verts[x]]}, int32(roots[path[1]])})
								// Closure records: the ε-cover places no
								// records at the witness path's interior
								// vertices, so emit one per interior vertex
								// (its exact tail distance to the anchor,
								// accumulated backwards) to keep every hop
								// chain landing on a record until it reaches
								// the anchor's self entry. Subpaths of a
								// shortest path are shortest, so each Dist is
								// a true distance and query stretch can only
								// improve.
								tail := 0.0
								for pidx := len(path) - 2; pidx >= 1; pidx-- {
									ew, _ := j.EdgeWeight(path[pidx], path[pidx+1])
									tail = ew + tail
									out = append(out, rec{roots[path[pidx]], k, Portal{Pos: info.pos[x], Dist: tail}, int32(roots[path[pidx+1]])})
								}
							}
						}
						return out
					})
				}
			}

			for _, p := range phase.Paths {
				for _, lv := range p.Vertices {
					removed[lv] = true
				}
			}
		}
	}

	// Stage 2: fan out the Dijkstra tasks; each writes only its own slot.
	outs := make([][]rec, len(tasks))
	pool.ForEach(len(tasks), func(i int) { outs[i] = tasks[i]() })

	// Stage 3: serial merge in fixed task order.
	for _, rs := range outs {
		for _, r := range rs {
			add(r.v, r.k, r.p, r.h)
		}
	}

	for v := range o.Labels {
		normalizeLabel(&o.Labels[v])
	}
	sort.Slice(o.paths, func(i, j int) bool { return keyLess(o.paths[i].key, o.paths[j].key) })
	o.hasPathData = true
	if m := opt.Metrics; m != nil {
		labelHist := m.Histogram("oracle.label_portals")
		for v := range o.Labels {
			labelHist.Observe(float64(o.Labels[v].NumPortals()))
		}
		m.Gauge("oracle.labels").Set(int64(o.N))
		m.Gauge("oracle.portal_words").Set(int64(o.SpacePortals()))
		m.Gauge("oracle.max_label_portals").Set(int64(o.MaxLabelPortals()))
		o.SetMetrics(m)
	}
	return o, nil
}

// selectEvenPortals picks at most p indices into pos, spaced evenly by
// weight, always including the first and last.
func selectEvenPortals(pos []float64, p int) []int {
	n := len(pos)
	if n == 0 {
		return nil
	}
	if p < 2 {
		p = 2
	}
	if n <= p {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	total := pos[n-1]
	out := []int{0}
	for i := 1; i < p-1; i++ {
		target := total * float64(i) / float64(p-1)
		x := sort.SearchFloat64s(pos, target)
		if x >= n {
			x = n - 1
		}
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	if out[len(out)-1] != n-1 {
		out = append(out, n-1)
	}
	return out
}

// pathInfo is a separator path in residual-local IDs with prefix-weight
// positions along it.
type pathInfo struct {
	verts []int
	pos   []float64
}

// epsCover greedily selects indices x into the path such that every path
// vertex y reachable from w satisfies, for some selected x:
// dist[x] + |pos[x]-pos[y]| <= (1+eps) * dist[y]. A vertex certifies its
// own coverage when selected, so the invariant holds by construction.
func epsCover(dist []float64, info pathInfo, eps float64) []int {
	var chosen []int
	for y := range info.verts {
		dy := dist[info.verts[y]]
		if math.IsInf(dy, 1) {
			continue
		}
		covered := false
		for _, x := range chosen {
			dx := dist[info.verts[x]]
			if dx+math.Abs(info.pos[x]-info.pos[y]) <= (1+eps)*dy {
				covered = true
				break
			}
		}
		if !covered {
			chosen = append(chosen, y)
		}
	}
	return chosen
}

// portalHop pairs a portal with its hop so the two co-sort and co-dedup.
type portalHop struct {
	p Portal
	h int32
}

// normalizeLabel sorts entries by key, sorts portals by position, and
// deduplicates portals at equal positions keeping the smaller distance.
// Hops, when present, travel with their portals (ties broken by the
// smaller hop so the result does not depend on worker order); entries
// whose Hops length does not match (legacy distance-only labels) take
// the portal-only path.
func normalizeLabel(l *Label) {
	sort.Slice(l.Entries, func(i, j int) bool { return keyLess(l.Entries[i].Key, l.Entries[j].Key) })
	// Merge duplicate keys (entries were appended per construction stage).
	out := l.Entries[:0]
	for _, e := range l.Entries {
		if len(out) > 0 && out[len(out)-1].Key == e.Key {
			out[len(out)-1].Portals = append(out[len(out)-1].Portals, e.Portals...)
			out[len(out)-1].Hops = append(out[len(out)-1].Hops, e.Hops...)
			continue
		}
		out = append(out, e)
	}
	l.Entries = out
	for i := range l.Entries {
		e := &l.Entries[i]
		if len(e.Hops) != len(e.Portals) {
			e.Hops = nil
			normalizePortals(e)
			continue
		}
		ph := make([]portalHop, len(e.Portals))
		for x := range ph {
			ph[x] = portalHop{p: e.Portals[x], h: e.Hops[x]}
		}
		sort.Slice(ph, func(a, b int) bool {
			if !core.SameDist(ph[a].p.Pos, ph[b].p.Pos) {
				return ph[a].p.Pos < ph[b].p.Pos
			}
			if !core.SameDist(ph[a].p.Dist, ph[b].p.Dist) {
				return ph[a].p.Dist < ph[b].p.Dist
			}
			return ph[a].h < ph[b].h
		})
		ps, hs := e.Portals[:0], e.Hops[:0]
		for _, x := range ph {
			if len(ps) > 0 && core.SameDist(ps[len(ps)-1].Pos, x.p.Pos) {
				continue // keep the smaller distance (sorted first)
			}
			ps = append(ps, x.p)
			hs = append(hs, x.h)
		}
		e.Portals, e.Hops = ps, hs
	}
}

// normalizePortals is the distance-only half of normalizeLabel: sort by
// position and dedup keeping the smaller distance.
func normalizePortals(e *Entry) {
	ps := e.Portals
	sort.Slice(ps, func(a, b int) bool {
		if !core.SameDist(ps[a].Pos, ps[b].Pos) {
			return ps[a].Pos < ps[b].Pos
		}
		return ps[a].Dist < ps[b].Dist
	})
	dedup := ps[:0]
	for _, p := range ps {
		if len(dedup) > 0 && core.SameDist(dedup[len(dedup)-1].Pos, p.Pos) {
			continue // keep the smaller distance (sorted first)
		}
		dedup = append(dedup, p)
	}
	e.Portals = dedup
}

// Query returns a (1+ε)-approximate distance between u and v, or +Inf if
// they are disconnected. Out-of-range or negative vertex IDs also report
// +Inf ("not locatable") rather than panicking — the oracle is the public
// query surface, so malformed input degrades gracefully. With metrics
// attached (SetMetrics) it also observes the query latency and the number
// of portals compared; the disabled path is a single bounds-and-nil check
// and allocation-free.
func (o *Oracle) Query(u, v int) float64 {
	if u < 0 || v < 0 || u >= len(o.Labels) || v >= len(o.Labels) {
		return math.Inf(1)
	}
	if o.qLatency == nil {
		if u == v {
			return 0
		}
		est, _ := queryLabels(&o.Labels[u], &o.Labels[v])
		return est
	}
	start := time.Now()
	// Self queries are answered on a fast path but still observed (zero
	// portals compared), so QPS and latency numbers reflect all traffic.
	if u == v {
		o.qLatency.Observe(float64(time.Since(start)))
		o.qPortals.Observe(0)
		return 0
	}
	est, portals := queryLabels(&o.Labels[u], &o.Labels[v])
	o.qLatency.Observe(float64(time.Since(start)))
	o.qPortals.Observe(float64(portals))
	return est
}

// QueryLabels answers an approximate distance query from two labels alone
// (the distributed scheme): the minimum over shared separator paths of the
// best portal-pair estimate. Nil labels report +Inf.
func QueryLabels(lu, lv *Label) float64 {
	if lu == nil || lv == nil {
		return math.Inf(1)
	}
	est, _ := queryLabels(lu, lv)
	return est
}

// queryLabels is QueryLabels plus the number of portals examined (the
// query's work, reported by the oracle.query_portals histogram).
//
//pathsep:hotpath
func queryLabels(lu, lv *Label) (float64, int) {
	best := math.Inf(1)
	portals := 0
	i, j := 0, 0
	for i < len(lu.Entries) && j < len(lv.Entries) {
		a, b := lu.Entries[i], lv.Entries[j]
		switch {
		case a.Key == b.Key:
			portals += len(a.Portals) + len(b.Portals)
			if est := pairMin(a.Portals, b.Portals); est < best {
				best = est
			}
			i++
			j++
		case keyLess(a.Key, b.Key):
			i++
		default:
			j++
		}
	}
	return best, portals
}

// pairMin computes min over portals p in a, q in b of
// p.Dist + |p.Pos - q.Pos| + q.Dist in linear time via a merged sweep
// (both lists are sorted by position).
//
//pathsep:hotpath
func pairMin(a, b []Portal) float64 {
	best := math.Inf(1)
	// Sweep left-to-right: for each element of one list, combine with the
	// best (Dist - Pos) seen so far on the other list; then symmetric.
	minA := math.Inf(1) // min over seen a of (Dist - Pos)
	minB := math.Inf(1)
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j >= len(b) || (i < len(a) && a[i].Pos <= b[j].Pos) {
			if est := a[i].Dist + a[i].Pos + minB; est < best {
				best = est
			}
			if v := a[i].Dist - a[i].Pos; v < minA {
				minA = v
			}
			i++
		} else {
			if est := b[j].Dist + b[j].Pos + minA; est < best {
				best = est
			}
			if v := b[j].Dist - b[j].Pos; v < minB {
				minB = v
			}
			j++
		}
	}
	return best
}

// SpacePortals returns the total number of portal entries across all
// labels — the oracle's space in words, up to constants.
func (o *Oracle) SpacePortals() int {
	total := 0
	for i := range o.Labels {
		total += o.Labels[i].NumPortals()
	}
	return total
}

// MaxLabelPortals returns the largest label size in portals.
func (o *Oracle) MaxLabelPortals() int {
	best := 0
	for i := range o.Labels {
		if p := o.Labels[i].NumPortals(); p > best {
			best = p
		}
	}
	return best
}

// AuditResult summarizes a stretch audit against exact distances.
type AuditResult struct {
	Pairs      int
	MaxStretch float64
	// MeanStretch averages over audited (connected, distinct) pairs.
	MeanStretch float64
	// Underestimates counts pairs where the estimate fell below the true
	// distance — always zero for a correct oracle.
	Underestimates int
}

// Audit compares Query against fresh Dijkstra runs over sampled pairs
// drawn by next() (e.g. a closure over math/rand). It is the library form
// of the test-suite stretch audit, reusable by experiments and CLIs. The
// per-pair Dijkstras fan out across runtime.GOMAXPROCS(0) workers; use
// AuditWorkers to pin the width.
func (o *Oracle) Audit(g *graph.Graph, pairs int, next func(n int) int) AuditResult {
	return o.AuditWorkers(g, pairs, next, 0)
}

// AuditWorkers is Audit with an explicit worker-pool width (0 means
// runtime.GOMAXPROCS(0), 1 is fully serial). All pairs are drawn from
// next() serially up front and the ratios are reduced in draw order, so
// the result is bit-identical for every worker count.
func (o *Oracle) AuditWorkers(g *graph.Graph, pairs int, next func(n int) int, workers int) AuditResult {
	type slot struct {
		ratio float64
		under bool
		ok    bool
	}
	type pair struct{ u, v int }
	ps := make([]pair, pairs)
	for i := range ps {
		ps[i] = pair{next(o.N), next(o.N)}
	}
	slots := make([]slot, pairs)

	pool := par.New(workers, nil)
	pool.ForEach(pairs, func(i int) {
		u, v := ps[i].u, ps[i].v
		if u == v {
			return
		}
		d := shortest.Dijkstra(g, u).Dist[v]
		if math.IsInf(d, 1) || core.IsZeroDist(d) {
			return
		}
		est := o.Query(u, v)
		slots[i] = slot{ratio: est / d, under: est < d-1e-9, ok: true}
	})
	pool.Finish()

	res := AuditResult{}
	sum := 0.0
	for _, s := range slots {
		if !s.ok {
			continue
		}
		if s.under {
			res.Underestimates++
		}
		if s.ratio > res.MaxStretch {
			res.MaxStretch = s.ratio
		}
		sum += s.ratio
		res.Pairs++
	}
	if res.Pairs > 0 {
		res.MeanStretch = sum / float64(res.Pairs)
	}
	return res
}
