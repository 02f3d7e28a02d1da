package main

import (
	"math"
	"runtime"
	"time"

	"pathsep/internal/oracle"
)

// Round sizes of the library phases. A round is the unit a rate is taken
// over; each phase reports the median of its rounds' rates, so a stall in
// one round moves no reported number.
const (
	distRound  = 8192
	pathRound  = 2048
	batchRound = 8192
)

// libAcc accumulates the library phases over a run's rounds: the rate of
// every timed round of calls, so each reported rate is a median over the
// whole run.
type libAcc struct {
	dist, path, batch []float64 // calls (or pairs) per second, per round of calls
	verts, walks      float64   // vertices and walks QueryPath returned
	next              int       // next pool index
}

// take returns the next n pool indices, wrapping to the start.
func (a *libAcc) take(pool []oracle.Pair, n int) (int, int) {
	if a.next+n > len(pool) {
		a.next = 0
	}
	lo := a.next
	a.next += n
	return lo, lo + n
}

// run times Flat.Query, Flat.QueryPath (with one reused buffer) and
// Flat.QueryBatchWorkers (GOMAXPROCS workers) on fl, for d[0], d[1] and
// d[2] respectively, cycling through pool. Every answer is compared bit
// for bit with want, the pool's distances from an untimed warm-up pass.
func (a *libAcc) run(fl *oracle.Flat, pool []oracle.Pair, want []float64, d [3]time.Duration, chk *checker, tr *tracer, parent int) {
	// Flat.Query on one goroutine.
	phase := tr.begin("phase.dist", layerBench, parent)
	for end := time.Now().Add(d[0]); time.Now().Before(end); {
		lo, hi := a.take(pool, distRound)
		id := tr.begin("query.dist", layerQuery, phase)
		t0 := time.Now()
		bad := 0
		for i := lo; i < hi; i++ {
			p := pool[i]
			if math.Float64bits(fl.Query(int(p.U), int(p.V))) != math.Float64bits(want[i]) {
				bad++
			}
		}
		a.dist = append(a.dist, float64(hi-lo)/time.Since(t0).Seconds())
		tr.end(id)
		chk.book(hi-lo, bad, "Query: %d of %d answers differ from the warm-up pass", bad, hi-lo)
	}
	tr.end(phase)

	// Flat.QueryPath on one goroutine with a reused buffer.
	phase = tr.begin("phase.path", layerBench, parent)
	buf := make([]int32, 0, 1024)
	for end := time.Now().Add(d[1]); time.Now().Before(end); {
		lo, hi := a.take(pool, pathRound)
		id := tr.begin("query.path", layerQuery, phase)
		t0 := time.Now()
		bad, verts := 0, 0
		for i := lo; i < hi; i++ {
			p := pool[i]
			dist, path, err := fl.QueryPath(int(p.U), int(p.V), buf[:0])
			buf = path
			verts += len(path)
			if err != nil || math.Float64bits(dist) != math.Float64bits(want[i]) {
				bad++
			}
		}
		a.path = append(a.path, float64(hi-lo)/time.Since(t0).Seconds())
		tr.end(id)
		chk.book(hi-lo, bad, "QueryPath: %d of %d answers differ from the warm-up pass", bad, hi-lo)
		a.verts += float64(verts)
		a.walks += float64(hi - lo)
	}
	tr.end(phase)

	// Flat.QueryBatchWorkers with GOMAXPROCS workers and a reused buffer.
	phase = tr.begin("phase.batch", layerBench, parent)
	out := make([]float64, batchRound)
	for end := time.Now().Add(d[2]); time.Now().Before(end); {
		lo, hi := a.take(pool, batchRound)
		id := tr.begin("query.batch", layerQuery, phase)
		t0 := time.Now()
		out = fl.QueryBatchWorkers(pool[lo:hi], out, 0)
		a.batch = append(a.batch, float64(hi-lo)/time.Since(t0).Seconds())
		tr.end(id)
		bad := 0
		for i, x := range out {
			if math.Float64bits(x) != math.Float64bits(want[lo+i]) {
				bad++
			}
		}
		chk.book(hi-lo, bad, "QueryBatchWorkers: %d of %d answers differ from the warm-up pass", bad, hi-lo)
	}
	tr.end(phase)
}

// allocsPerQuery is the mean number of heap allocations one Flat.Query
// makes, read from the runtime's malloc counter over the given pairs.
func allocsPerQuery(fl *oracle.Flat, pairs []oracle.Pair) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for _, p := range pairs {
		fl.Query(int(p.U), int(p.V))
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(len(pairs))
}

// wantDists answers pool once, untimed: the reference every timed answer
// of the same image is compared with.
func wantDists(fl *oracle.Flat, pool []oracle.Pair) []float64 {
	out := make([]float64, len(pool))
	for i, p := range pool {
		out[i] = fl.Query(int(p.U), int(p.V))
	}
	return out
}
