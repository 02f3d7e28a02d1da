package oracle

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"pathsep/internal/obs"
	"pathsep/internal/par"
)

// Flat is the compiled read-only query form of an Oracle: the same labels
// re-laid-out as a struct-of-arrays so the query hot path touches only
// contiguous memory.
//
//   - Every distinct separator-path Key across all labels is interned into
//     keys (sorted by keyLess); entries refer to keys by their dense int32
//     ID, so the merge-join compares one int32 instead of an 8-byte struct.
//   - Per-vertex entries live in CSR form: vertex v owns entry indices
//     entryOff[v]..entryOff[v+1], and entry e owns the portal range
//     portalOff[e]..portalOff[e+1] of the single contiguous portal pool.
//
// A Flat is immutable after Freeze/DecodeFlat, so Query and QueryBatch are
// safe for unbounded concurrent use. Queries return bit-identical results
// to the pointer-walking Oracle.Query: the merge-join visits shared keys in
// the same order, and the portal sweep evaluates exactly the candidate
// values pairMin evaluates — the per-portal terms fl(Dist+Pos) and
// fl(Dist−Pos) are precomputed once (with pairMin's own rounding) into
// the sweep lane, so every float64 comparison sees the same bits.
type Flat struct {
	n    int
	eps  float64
	mode Mode

	keys      []Key    // interned keys, sorted by keyLess; ID = index
	entryOff  []int32  // len n+1: CSR offsets into entryKey/portalOff
	entryKey  []int32  // len numEntries: key ID per entry
	portalOff []int32  // len numEntries+1: CSR offsets into portals
	portals   []Portal // one contiguous pool, grouped by entry

	// Path-reporting sections (wire v2; see path.go and flat_encode.go).
	// hops[i] is the portal-pool index of the next record on pool record
	// i's hop chain, or -1 at the chain's anchor; pathOff/pathVert/
	// pathPos are the per-key separator-path geometry in CSR form.
	hops        []int32
	pathOff     []int32
	pathVert    []int32
	pathPos     []float64
	hasPathData bool

	// Derived view of the pool (see derive): the sweep lane. Entry e's
	// portal run [portalOff[e], portalOff[e+1)) of k records occupies
	// lane[3*portalOff[e]:] as k three-float records
	// (pos, fl(Dist−Pos), smin), where record x's smin is the min of
	// fl(Dist+Pos) over the run's suffix [x, k). The suffix-min collapses
	// the classic sweep's per-element fold: when the merge consumes
	// element x of one side, every legal partner is exactly the other
	// side's unconsumed suffix, so the single candidate
	// fl(diff_consumed + smin_other) covers all of them at once — min is
	// exact and rounding is monotone, so that equals the min of the
	// pairwise fl(sum+diff) candidates bit for bit. One fold per step,
	// no running min registers, and no tail pass: once either side is
	// exhausted the remainder has no partners left and is never touched.
	// The lane is not part of the encoding; it is rebuilt on decode.
	lane []float64
	// Derived walk layout (deriveWalk; path-bearing images only): the hop
	// forest re-laid-out in heavy-chain order, each chain one contiguous
	// block in walkBlk — its records' owning vertices child-to-parent,
	// then a two-word trailer [jumpSlot, jumpEnd] naming the segment the
	// chain head hops into (jumpSlot -1 at an anchor head). A walk is a
	// handful of bulk copies: memmove the owner run, read the trailer off
	// the cache lines the copy just touched, jump. Light edges are the
	// only jumps and a walk crosses O(log P) of them. walkFrom maps a
	// pool record to its first segment (slot, run end) plus its chain's
	// final anchor index into the key's path-geometry span — one load
	// hands QueryPath both walk entries and both anchors before either
	// walk runs, so the middle segment is emitted in final order between
	// the two chains. Records a corrupt image left unreachable from any
	// anchor carry slot -1; anchor -1 marks unresolvable geometry.
	walkBlk  []int32
	walkFrom []startRec

	// buf retains the encoded byte slice when the Flat was produced by a
	// zero-copy DecodeFlat; the slices above alias it.
	buf []byte

	// Query-time instruments (SetMetrics); all nil-safe, and the disabled
	// path is a single nil check with no allocation.
	qLatency *obs.Histogram
	qPortals *obs.Histogram
	batchQPS *obs.Gauge

	// slow, when attached via SetSlowSampler, retains the slowest queries
	// as (u, v, dist, ns) exemplars. Like the instruments above it is
	// nil-safe and costs nothing when detached.
	slow *obs.SlowQuerySampler
}

// Freeze compiles the oracle into its flat serving form. The oracle itself
// is not modified or retained. Freeze fails only when the oracle exceeds
// the int32 CSR index space (more than ~2·10⁹ entries or portals).
func (o *Oracle) Freeze() (*Flat, error) {
	// Intern keys: collect the distinct Key set and rank it by keyLess, so
	// ID order coincides with the order the pointer merge-join visits keys.
	seen := make(map[Key]int32)
	var keys []Key
	numEntries, numPortals := 0, 0
	for v := range o.Labels {
		for _, e := range o.Labels[v].Entries {
			if _, ok := seen[e.Key]; !ok {
				seen[e.Key] = 0
				keys = append(keys, e.Key)
			}
			numEntries++
			numPortals += len(e.Portals)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	for i, k := range keys {
		seen[k] = int32(i)
	}
	if numEntries+1 > math.MaxInt32 || numPortals > math.MaxInt32 {
		return nil, fmt.Errorf("oracle: freeze: %d entries / %d portals exceed the int32 CSR index space", numEntries, numPortals)
	}

	f := &Flat{
		n:         o.N,
		eps:       o.Eps,
		mode:      o.mode,
		keys:      keys,
		entryOff:  make([]int32, o.N+1),
		entryKey:  make([]int32, 0, numEntries),
		portalOff: make([]int32, 1, numEntries+1),
		portals:   make([]Portal, 0, numPortals),
	}
	for v := range o.Labels {
		for _, e := range o.Labels[v].Entries {
			f.entryKey = append(f.entryKey, seen[e.Key])
			f.portals = append(f.portals, e.Portals...)
			f.portalOff = append(f.portalOff, int32(len(f.portals)))
		}
		f.entryOff[v+1] = int32(len(f.entryKey))
	}
	if o.hasPathData {
		f.freezePaths(o)
	}
	f.derive()
	return f, nil
}

// derive materializes the sweep lane. The sums and differences are
// rounded here exactly as pairMin rounds them (left-associated
// fl(Dist+Pos), fl(Dist−Pos)), so the sweep's candidate values — and
// therefore Query answers — stay bit-identical to the pointer form.
// Record x's smin precomputes the min of fl(Dist+Pos) over the run's
// suffix [x, k): min is exact (no rounding), so the query-time fold
// fl(diff_consumed + smin_other) equals the min of the pairwise
// candidates fl(sum+diff) the register sweep folds one by one (see the
// lane layout doc on Flat). The lane comes from a plain make and is
// filled before the image is published.
func (f *Flat) derive() {
	f.lane = make([]float64, 3*len(f.portals))
	for e := 0; e+1 < len(f.portalOff); e++ {
		lo, hi := int(f.portalOff[e]), int(f.portalOff[e+1])
		base := 3 * lo
		sm := math.Inf(1)
		for x := hi - lo - 1; x >= 0; x-- {
			p := f.portals[lo+x]
			if s := p.Dist + p.Pos; s < sm {
				sm = s
			}
			f.lane[base+3*x] = p.Pos
			f.lane[base+3*x+1] = p.Dist - p.Pos
			f.lane[base+3*x+2] = sm
		}
	}
	if f.hasPathData {
		f.deriveWalk()
	}
}

// startRec is the per-pool-record walk entry: the record's slot and its
// chain's last owner slot in walkBlk (slot -1 when stranded by a corrupt
// image), the chain's final anchor index into the key's path-geometry
// span (-1 when unresolvable), and the walk's total output length from
// this record to its anchor inclusive. Knowing both walks' lengths and
// anchors up front lets QueryPath size the output once and write every
// piece straight into its final position. 16 bytes keeps the record on
// one cache line.
type startRec struct {
	slot   int32
	end    int32
	anchor int32
	depth  int32
}

// deriveWalk compiles the hop forest into the walkBlk/walkFrom layout.
// Chains are emitted in heavy-path order — each record's heaviest child
// is placed immediately before it — so a chain from any slot to its head
// is one contiguous owner run the walk copies in bulk; only light edges
// jump, and a root-to-leaf walk crosses O(log P) of them. Anchor heads
// resolve their path-geometry index here (the one equality search per
// anchor that QueryPath would otherwise run per query). Records on a hop
// cycle (possible only in a corrupt image: decode validates hop ranges,
// not acyclicity) are never reached from an anchor and keep walkFrom
// slot -1, which the walk reports as a dangling record.
func (f *Flat) deriveWalk() {
	p := len(f.hops)
	f.walkFrom = make([]startRec, p)
	if p == 0 {
		f.walkBlk = nil
		return
	}
	pos := make([]int32, p)
	owner := make([]int32, p)
	for v := 0; v < f.n; v++ {
		for e := f.entryOff[v]; e < f.entryOff[v+1]; e++ {
			for i := f.portalOff[e]; i < f.portalOff[e+1]; i++ {
				owner[i] = int32(v)
			}
		}
	}
	// Children of each record in the hop forest, CSR form.
	childOff := make([]int32, p+1)
	for _, h := range f.hops {
		if h >= 0 {
			childOff[h+1]++
		}
	}
	for i := 0; i < p; i++ {
		childOff[i+1] += childOff[i]
	}
	child := make([]int32, childOff[p])
	fill := make([]int32, p)
	for i, h := range f.hops {
		if h >= 0 {
			child[childOff[h]+fill[h]] = int32(i)
			fill[h]++
		}
	}
	// Subtree sizes bottom-up (Kahn's order: leaves drain first). Cycle
	// records never drain; their sizes stay partial, which is fine — they
	// are never placed either.
	size := make([]int32, p)
	pend := fill // fully counted above; reuse as the pending-child count
	queue := make([]int32, 0, p)
	for i := 0; i < p; i++ {
		size[i] = 1
		if pend[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		i := queue[qi]
		if h := f.hops[i]; h >= 0 {
			size[h] += size[i]
			if pend[h]--; pend[h] == 0 {
				queue = append(queue, h)
			}
		}
	}
	heavy := make([]int32, p)
	for i := 0; i < p; i++ {
		best, bestSz := int32(-1), int32(0)
		for x := childOff[i]; x < childOff[i+1]; x++ {
			if c := child[x]; size[c] > bestSz {
				best, bestSz = c, size[c]
			}
		}
		heavy[i] = best
	}
	// Lay out heavy paths into walkBlk: each chain root-to-leaf, written
	// leaf-first so the bulk copy runs child-to-parent left to right, the
	// chain head on the run's last slot, and a two-word trailer after it.
	// Chains are placed parent-before-light-child (a head is pushed only
	// after its parent's chain lands), so a chain's jump and anchor
	// resolve off already-placed chains in one placement-order pass.
	for i := range pos {
		pos[i] = -1
	}
	var heads, path []int32
	for i := 0; i < p; i++ {
		if f.hops[i] < 0 {
			heads = append(heads, int32(i))
		}
	}
	type chainRec struct {
		head int32 // pool record on the run's last slot
		end  int32 // walkBlk index of that slot
	}
	var chains []chainRec
	chainOf := make([]int32, p) // pool record -> index into chains
	recEnd := make([]int32, p)  // pool record -> its chain's end slot
	blk := make([]int32, 0, p+p/2)
	for len(heads) > 0 {
		h := heads[len(heads)-1]
		heads = heads[:len(heads)-1]
		path = path[:0]
		for x := h; x >= 0; x = heavy[x] {
			path = append(path, x)
		}
		end := int32(len(blk) + len(path) - 1)
		ci := int32(len(chains))
		chains = append(chains, chainRec{head: h, end: end})
		for i := len(path) - 1; i >= 0; i-- {
			r := path[i]
			pos[r] = int32(len(blk))
			blk = append(blk, owner[r])
			chainOf[r] = ci
			recEnd[r] = end
		}
		blk = append(blk, -1, -1) // trailer, filled below
		for _, node := range path {
			for x := childOff[node]; x < childOff[node+1]; x++ {
				if c := child[x]; c != heavy[node] {
					heads = append(heads, c)
				}
			}
		}
	}
	f.walkBlk = blk
	// Resolve each placed anchor head's geometry index — a failed
	// resolution (corrupt image) stays -1 and surfaces as a walk error.
	anchorIdx := make([]int32, p)
	for i := range anchorIdx {
		anchorIdx[i] = -1
	}
	for e := 0; e < len(f.entryKey); e++ {
		kid := f.entryKey[e]
		plo, phi := f.pathOff[kid], f.pathOff[kid+1]
		pathPos := f.pathPos[plo:phi]
		pathVert := f.pathVert[plo:phi]
		for i := f.portalOff[e]; i < f.portalOff[e+1]; i++ {
			if pos[i] < 0 || f.hops[i] >= 0 {
				continue
			}
			if idx, err := pathIndexAt(pathPos, pathVert, f.portals[i].Pos, owner[i]); err == nil {
				anchorIdx[i] = int32(idx)
			}
		}
	}
	// Fill trailers and per-chain anchor/tail-depth in placement order: a
	// light chain jumps into its parent's run and inherits its anchor and
	// the walk length past its head; a root chain stops at its own
	// resolved geometry index.
	chainAnchor := make([]int32, len(chains))
	chainTail := make([]int32, len(chains)) // output length after the head
	for ci, c := range chains {
		if h := f.hops[c.head]; h >= 0 {
			blk[c.end+1] = pos[h]
			blk[c.end+2] = recEnd[h]
			hc := chainOf[h]
			chainAnchor[ci] = chainAnchor[hc]
			chainTail[ci] = (recEnd[h] - pos[h] + 1) + chainTail[hc]
		} else {
			chainAnchor[ci] = anchorIdx[c.head]
		}
	}
	for r := 0; r < p; r++ {
		sr := startRec{slot: pos[r], end: -1, anchor: -1}
		if sr.slot >= 0 {
			ci := chainOf[r]
			sr.end = recEnd[r]
			sr.anchor = chainAnchor[ci]
			sr.depth = (recEnd[r] - pos[r] + 1) + chainTail[ci]
		}
		f.walkFrom[r] = sr
	}
}

// N returns the number of labeled vertices.
func (f *Flat) N() int { return f.n }

// Eps returns the ε the source oracle was built with.
func (f *Flat) Eps() float64 { return f.eps }

// Mode returns the portal construction the source oracle was built with.
func (f *Flat) Mode() Mode { return f.mode }

// NumKeys returns the number of interned separator-path keys.
func (f *Flat) NumKeys() int { return len(f.keys) }

// NumEntries returns the total entry count across all labels.
func (f *Flat) NumEntries() int { return len(f.entryKey) }

// NumPortals returns the size of the contiguous portal pool.
func (f *Flat) NumPortals() int { return len(f.portals) }

// PortalPoolBytes returns the in-memory size of the contiguous portal
// pool (16 bytes per record).
func (f *Flat) PortalPoolBytes() int { return 16 * len(f.portals) }

// LaneBytes returns the in-memory size of the derived sweep lane (24
// bytes per portal; see derive).
func (f *Flat) LaneBytes() int { return 8 * len(f.lane) }

// PortalRunLengths appends the per-entry portal-run lengths (the k of
// each lane group) to dst and returns it — the distribution
// cmd/inspect reports to explain sweep cost.
func (f *Flat) PortalRunLengths(dst []int) []int {
	for e := 0; e+1 < len(f.portalOff); e++ {
		dst = append(dst, int(f.portalOff[e+1]-f.portalOff[e]))
	}
	return dst
}

// SetMetrics attaches (or, with nil, detaches) serving metrics:
// "oracle.query_ns" and "oracle.query_portals" observe single queries
// (same instruments as the pointer oracle), "oracle.batch_qps" records the
// throughput of the last QueryBatch, and "oracle.flat_bytes" is set once
// to the encoded size of this Flat.
func (f *Flat) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		f.qLatency, f.qPortals, f.batchQPS = nil, nil, nil
		return
	}
	f.qLatency = reg.Histogram("oracle.query_ns")
	f.qPortals = reg.Histogram("oracle.query_portals")
	f.batchQPS = reg.Gauge("oracle.batch_qps")
	reg.Gauge("oracle.flat_bytes").Set(int64(f.EncodedSize()))
}

// SetSlowSampler attaches (or, with nil, detaches) a slow-query exemplar
// reservoir: every instrumented Query offers its (u, v, dist, ns) tuple,
// and the sampler retains the slowest. The disabled path (no sampler, no
// metrics) stays a single nil check with no allocation; the enabled path
// is allocation-free too.
func (f *Flat) SetSlowSampler(s *obs.SlowQuerySampler) { f.slow = s }

// Query returns the same (1+ε)-approximate distance as the source
// Oracle.Query, bit for bit. It is goroutine-safe and allocation-free;
// malformed vertex IDs report +Inf. With metrics or a slow-query sampler
// attached it observes the query latency and portal work, including on
// the u == v fast path.
func (f *Flat) Query(u, v int) float64 {
	if u < 0 || v < 0 || u >= f.n || v >= f.n {
		return math.Inf(1)
	}
	if f.qLatency == nil && f.slow == nil {
		if u == v {
			return 0
		}
		est, _ := f.query(u, v)
		return est
	}
	start := time.Now()
	if u == v {
		ns := time.Since(start)
		f.qLatency.Observe(float64(ns))
		f.qPortals.Observe(0)
		f.slow.Observe(int32(u), int32(v), 0, ns.Nanoseconds())
		return 0
	}
	est, portals := f.query(u, v)
	ns := time.Since(start)
	f.qLatency.Observe(float64(ns))
	f.qPortals.Observe(float64(portals))
	f.slow.Observe(int32(u), int32(v), est, ns.Nanoseconds())
	return est
}

// sweepRec folds one matched key's merged sweep over two record runs
// (kA/kB are the runs' lengths in lane slots, 3 per portal; see the
// lane layout doc on Flat) and returns best folded with the run pair's
// candidates. Consuming element x of one side folds the single
// candidate fl(diff_x + smin_other), which covers every legal pairing
// of x at once — the other side's unconsumed suffix is exactly x's
// partner set — so each step is one load-add-compare, there are no
// running min registers, and when either side runs out the remainder
// has no partners and the sweep simply stops: no tail pass. The advance
// is a predicted branch on purpose: a branchless select would chain the
// next load address through the compare and serialize the memory level
// parallelism the speculative fetch down the predicted path provides.
// A separate function keeps the loop's live values inside one register
// file instead of spilling the caller's merge state around it.
//
//pathsep:hotpath
func sweepRec(recA, recB []float64, kA, kB int, best float64) float64 {
	if kA == 0 || kB == 0 {
		return best
	}
	_ = recA[kA-1]
	_ = recB[kB-1]
	xa, yb := 0, 0
	for {
		if recA[xa] <= recB[yb] {
			if est := recA[xa+1] + recB[yb+2]; est < best {
				best = est
			}
			if xa += 3; xa >= kA {
				break
			}
		} else {
			if est := recB[yb+1] + recA[xa+2]; est < best {
				best = est
			}
			if yb += 3; yb >= kB {
				break
			}
		}
	}
	return best
}

// query is the flat merge-join: two CSR entry ranges advance on int32 key
// IDs, and each matched entry pair runs pairMin's merged sweep (sweepRec)
// over its sweep-lane runs. The candidate values are exactly
// queryLabels'/pairMin's — min over an identical multiset — which the
// differential tests pin down bit for bit. portals counts the pool
// records visited, for the query_portals histogram.
//
//pathsep:hotpath
func (f *Flat) query(u, v int) (float64, int) {
	best := math.Inf(1)
	portals := 0
	ek, po, ln := f.entryKey, f.portalOff, f.lane
	i, iEnd := int(f.entryOff[u]), int(f.entryOff[u+1])
	j, jEnd := int(f.entryOff[v]), int(f.entryOff[v+1])
	for i < iEnd && j < jEnd {
		a, b := ek[i], ek[j]
		switch {
		case a == b:
			ia, ka := int(po[i]), int(po[i+1]-po[i])
			ib, kb := int(po[j]), int(po[j+1]-po[j])
			portals += ka + kb
			best = sweepRec(ln[3*ia:3*(ia+ka)], ln[3*ib:3*(ib+kb)], 3*ka, 3*kb, best)
			i++
			j++
		case a < b:
			i++
		default:
			j++
		}
	}
	return best, portals
}

// answer is Query without instrumentation: the per-pair unit of QueryBatch.
//
//pathsep:hotpath
func (f *Flat) answer(u, v int) float64 {
	if u < 0 || v < 0 || u >= f.n || v >= f.n {
		return math.Inf(1)
	}
	if u == v {
		return 0
	}
	est, _ := f.query(u, v)
	return est
}

// Pair is one (U, V) query of a batch.
type Pair struct {
	U, V int32
}

// batchChunksPerWorker over-splits a batch so workers that hit cheap pairs
// steal further chunks instead of idling.
const batchChunksPerWorker = 8

// answerRange answers pairs[lo:hi] into out[lo:hi] in caller order.
func (f *Flat) answerRange(pairs []Pair, out []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = f.answer(int(pairs[i].U), int(pairs[i].V))
	}
}

// QueryBatch answers pairs[i] into out[i] for every i, fanning the work
// out over runtime.GOMAXPROCS(0) workers. out is reused when it has
// sufficient capacity and allocated otherwise; the (possibly re-sliced)
// result is returned, so callers amortize to zero allocations by passing
// the previous batch's slice back in. Each worker answers its own chunk
// of slots, so results are identical to calling Query per pair (and
// therefore to Oracle.Query), for every worker count and every caller
// ordering. With metrics attached, the batch records its throughput in
// the "oracle.batch_qps" gauge; per-query histograms are not touched.
func (f *Flat) QueryBatch(pairs []Pair, out []float64) []float64 {
	return f.QueryBatchWorkers(pairs, out, 0)
}

// QueryBatchWorkers is QueryBatch with an explicit worker-pool width
// (0 means runtime.GOMAXPROCS(0), 1 runs serially on the caller).
func (f *Flat) QueryBatchWorkers(pairs []Pair, out []float64, workers int) []float64 {
	if cap(out) < len(pairs) {
		out = make([]float64, len(pairs))
	}
	out = out[:len(pairs)]
	if len(pairs) == 0 {
		return out
	}
	start := time.Now()
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		// Serial fast path: no pool, no closure — keeps the reused-buffer
		// contract at a true zero allocations per batch.
		f.answerRange(pairs, out, 0, len(pairs))
	} else {
		pool := par.New(workers, nil)
		chunks := pool.Workers() * batchChunksPerWorker
		if chunks > len(pairs) {
			chunks = len(pairs)
		}
		size := (len(pairs) + chunks - 1) / chunks
		pool.ForEach(chunks, func(c int) {
			lo := c * size
			hi := lo + size
			if hi > len(pairs) {
				hi = len(pairs)
			}
			f.answerRange(pairs, out, lo, hi)
		})
		pool.Finish()
	}
	if f.batchQPS != nil {
		if ns := time.Since(start).Nanoseconds(); ns > 0 {
			f.batchQPS.Set(int64(float64(len(pairs)) * 1e9 / float64(ns)))
		}
	}
	return out
}
