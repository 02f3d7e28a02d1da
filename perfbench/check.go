package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"pathsep/internal/graph"
	"pathsep/internal/oracle"
	"pathsep/internal/shortest"
)

// relTol is the float-rounding allowance of the answer checks, the same
// 1e-9 relative tolerance the repository's own differential tests use.
// The oracle promises its walks weigh the reported distance "up to float
// rounding": the walk is summed edge by edge, the estimate as portal
// distance plus path offset, and the two orders round differently.
const relTol = 1e-9

// checker counts the operations a run attempted and the ones that failed:
// a transport error, a non-200 status, a wrong answer or a rejected
// reload. It is shared by the load generator's goroutines.
type checker struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu   sync.Mutex
	msgs []string // the first few failures, for the log
}

func (c *checker) pass(n int) { c.attempted.Add(int64(n)) }

func (c *checker) fail(format string, args ...any) { c.book(1, 1, format, args...) }

// book counts n operations of which bad failed; a failure keeps its
// message when fewer than ten are kept already.
func (c *checker) book(n, bad int, format string, args ...any) {
	c.attempted.Add(int64(n))
	if bad == 0 {
		return
	}
	c.failed.Add(int64(bad))
	c.mu.Lock()
	if len(c.msgs) < 10 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// verify counts one operation, failed when err is non-nil.
func (c *checker) verify(err error) {
	if err != nil {
		c.fail("%v", err)
		return
	}
	c.pass(1)
}

// portalStretchCap is the stretch portal mode promises: its closest-
// attachment entries cap the estimate at three times the distance (the
// bound the oracle package's own tests assert). Theorem 2's (1+ε) holds
// only in exact mode; portal mode's stretch is measured, not proven.
const portalStretchCap = 3

// promisedStretch is the stretch the build mode guarantees.
func promisedStretch(mode oracle.Mode, eps float64) float64 {
	if mode == oracle.CoverExact {
		return 1 + eps
	}
	return portalStretchCap
}

// stretchErr checks the mode's promise for one pair: the estimate d lies
// in [truth, stretch·truth].
func stretchErr(u, v int, truth, d, stretch float64) error {
	if math.IsInf(truth, 1) || math.IsInf(d, 1) {
		if math.IsInf(truth, 1) != math.IsInf(d, 1) {
			return fmt.Errorf("(%d,%d): estimate %v, true distance %v", u, v, d, truth)
		}
		return nil
	}
	if !(d >= truth*(1-relTol) && d <= stretch*truth*(1+relTol)) { // NaN fails too
		return fmt.Errorf("(%d,%d): estimate %v outside [%v, %v·%v]", u, v, d, truth, stretch, truth)
	}
	return nil
}

// walkErr checks one reported walk: it runs from u to v over edges of g,
// and its re-weighed length equals the reported distance d.
func walkErr(g *graph.Graph, u, v int, d float64, path []int32) error {
	if math.IsInf(d, 1) {
		if len(path) != 0 {
			return fmt.Errorf("(%d,%d): unreachable pair with a %d-vertex walk", u, v, len(path))
		}
		return nil
	}
	if len(path) == 0 || int(path[0]) != u || int(path[len(path)-1]) != v {
		return fmt.Errorf("(%d,%d): walk endpoints wrong: %v", u, v, path)
	}
	var w float64
	for i := 0; i+1 < len(path); i++ {
		ew, ok := g.EdgeWeight(int(path[i]), int(path[i+1]))
		if !ok {
			return fmt.Errorf("(%d,%d): walk steps %d->%d off the graph", u, v, path[i], path[i+1])
		}
		w += ew
	}
	if !(math.Abs(w-d) <= relTol*math.Max(math.Abs(d), 1)) { // NaN fails too
		return fmt.Errorf("(%d,%d): walk weighs %v, reported distance %v", u, v, w, d)
	}
	return nil
}

// stretchStats describes the measured stretch of a checked sample.
type stretchStats struct {
	max     float64 // largest estimate ÷ distance
	overEps int     // estimates above (1+ε)·distance
}

// checkImage runs the seeded answer sample on one image: distances against
// exact bidirectional Dijkstra, walks re-weighed on the graph, QueryPath's
// distance against Query bit for bit, and QueryBatch against Query bit for
// bit on the whole pair pool.
func checkImage(c *checker, g *graph.Graph, fl *oracle.Flat, samples int, pool []oracle.Pair, rng *rand.Rand) stretchStats {
	n := g.N()
	buf := make([]int32, 0, 256)
	var ss stretchStats
	for i := 0; i < samples; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		d := fl.Query(u, v)
		truth := shortest.Bidirectional(g, u, v)
		c.verify(stretchErr(u, v, truth, d, promisedStretch(fl.Mode(), fl.Eps())))
		if truth > 0 && !math.IsInf(truth, 1) {
			ss.max = math.Max(ss.max, d/truth)
			if d > (1+fl.Eps())*truth*(1+relTol) {
				ss.overEps++
			}
		}
		pd, path, err := fl.QueryPath(u, v, buf[:0])
		buf = path
		switch {
		case err != nil:
			c.fail("(%d,%d): QueryPath: %v", u, v, err)
		case math.Float64bits(pd) != math.Float64bits(d):
			c.fail("(%d,%d): QueryPath distance %v, Query %v", u, v, pd, d)
		default:
			c.verify(walkErr(g, u, v, pd, path))
		}
	}
	out := fl.QueryBatchWorkers(pool, nil, 0)
	for i, p := range pool {
		want := fl.Query(int(p.U), int(p.V))
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			c.fail("batch pair %d (%d,%d): %v, Query %v", i, p.U, p.V, out[i], want)
			continue
		}
		c.pass(1)
	}
	return ss
}
