// Package par is the bounded deterministic worker pool behind the
// parallel construction pipeline (core.Decompose, oracle.Build,
// Flat.Audit). It deliberately provides only fork/join primitives whose
// results land in caller-indexed slots, so parallel runs are bit-identical
// to serial ones: tasks may execute in any order on any worker, but every
// task writes only to its own index and callers merge the slots in a
// fixed order afterwards.
//
// A Pool with Workers() == 1 runs everything inline on the calling
// goroutine — the serial reference the differential tests compare
// against. The nil *Pool behaves the same way, so call sites thread a
// pool unconditionally.
//
// Instrumentation (all nil-safe, following internal/obs conventions):
//
//	build.workers_busy     gauge: peak number of simultaneously busy workers
//	build.tasks_stolen     counter: tasks executed by a helper worker
//	                       rather than the goroutine that submitted them
//	build.task_ns          histogram: per-task wall-clock latency
//	build.parallel_speedup gauge: 100 × (sum of task time / pool wall
//	                       time), set by Finish — 100 means no speedup
package par

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pathsep/internal/obs"
)

// Pool is a bounded worker pool. Create one with New; the zero value and
// the nil pool run everything inline.
type Pool struct {
	workers      int
	instrumented bool
	start        time.Time

	busy      atomic.Int64
	taskNanos atomic.Int64

	busyGauge *obs.Gauge
	stolen    *obs.Counter
	taskNS    *obs.Histogram
	speedup   *obs.Gauge
}

// New returns a pool of the given width. workers <= 0 means
// runtime.GOMAXPROCS(0). A width above 1 is capped to 1 when only one
// scheduler thread exists: helper goroutines cannot run concurrently
// there, so they add handoff overhead without any speedup (the condition
// the bench-parallel gate measures). reg may be nil (all instruments
// become no-ops).
func New(workers int, reg *obs.Registry) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 && runtime.GOMAXPROCS(0) == 1 {
		workers = 1
	}
	return &Pool{
		workers:      workers,
		instrumented: reg != nil,
		start:        time.Now(),
		busyGauge:    reg.Gauge("build.workers_busy"),
		stolen:       reg.Counter("build.tasks_stolen"),
		taskNS:       reg.Histogram("build.task_ns"),
		speedup:      reg.Gauge("build.parallel_speedup"),
	}
}

// shuffleSeed, when non-zero, permutes the order in which ForEach hands
// tasks to workers. Tasks keep their own indices — fn still receives
// 0..n-1 exactly once and slot writes land where they always do — only
// the submission schedule changes. This is a test hook for the
// determinism gate (make determinism): if any call site leaks scheduling
// order into its results, shuffling makes the leak a guaranteed byte
// diff instead of a probabilistic one.
var shuffleSeed atomic.Int64

// SetShuffleSeed enables (non-zero) or disables (zero) shuffled task
// submission for all pools in the process. Test use only; not part of
// the build pipeline's API surface.
func SetShuffleSeed(seed int64) { shuffleSeed.Store(seed) }

// taskOrder returns the submission permutation for n tasks, or nil for
// the identity order. The permutation is a pure function of the seed and
// n, so a shuffled run is itself reproducible.
func taskOrder(n int) []int {
	seed := shuffleSeed.Load()
	if seed == 0 || n < 2 {
		return nil
	}
	return rand.New(rand.NewSource(seed ^ int64(n)<<32)).Perm(n)
}

// Workers returns the pool width; 1 for the nil pool.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// run executes one task with busy/latency accounting. wid 0 is the
// submitting goroutine; helper workers count their tasks as stolen.
func (p *Pool) run(i, wid int, fn func(int)) {
	if p == nil {
		fn(i)
		return
	}
	p.busyGauge.SetMax(p.busy.Add(1))
	if wid != 0 {
		p.stolen.Inc()
	}
	t0 := time.Now()
	fn(i)
	dt := time.Since(t0).Nanoseconds()
	p.taskNanos.Add(dt)
	p.taskNS.Observe(float64(dt))
	p.busy.Add(-1)
}

// ForEach runs fn(0..n-1), using up to Workers() goroutines (the caller
// counts as one and always participates, so a width-1 pool is fully
// serial and index order is preserved). It returns when every call has
// finished. fn must confine its writes to data owned by its index.
func (p *Pool) ForEach(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	perm := taskOrder(n)
	task := func(i int) int {
		if perm != nil {
			return perm[i]
		}
		return i
	}
	if p == nil || p.workers <= 1 || n == 1 {
		if p == nil || !p.instrumented {
			// Serial fast path: no atomics, no clock reads per task.
			for i := 0; i < n; i++ {
				fn(task(i))
			}
			return
		}
		for i := 0; i < n; i++ {
			p.run(task(i), 0, fn)
		}
		return
	}
	var next atomic.Int64
	drain := func(wid int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			p.run(task(i), wid, fn)
		}
	}
	helpers := min(p.workers, n) - 1
	var wg sync.WaitGroup
	wg.Add(helpers)
	for w := 1; w <= helpers; w++ {
		go func(wid int) {
			defer wg.Done()
			drain(wid)
		}(w)
	}
	drain(0)
	wg.Wait()
}

// Fork runs the given functions as independent tasks (the two recursive
// halves of a decomposition step, for example) and returns when all have
// finished.
func (p *Pool) Fork(fns ...func()) {
	p.ForEach(len(fns), func(i int) { fns[i]() })
}

// Finish publishes the pool's aggregate speedup gauge: 100 × (total task
// time / wall time since New). Call it once, when the parallel phase is
// over (typically via defer). No-op on the nil pool.
func (p *Pool) Finish() {
	if p == nil {
		return
	}
	wall := time.Since(p.start).Nanoseconds()
	if wall <= 0 {
		return
	}
	p.speedup.Set(p.taskNanos.Load() * 100 / wall)
}

// SplitRand splits a parent generator into n child generators by drawing
// n seeds from the parent in a fixed serial order. Hand child i to
// subproblem i before fanning out: every subproblem then owns an
// independent deterministic stream, so results do not depend on worker
// count or scheduling. This is the sanctioned splitting helper — the
// seededrand analyzer flags ad-hoc rand.New(rand.NewSource(rng.Int63()))
// splits outside this package.
func SplitRand(parent *rand.Rand, n int) []*rand.Rand {
	out := make([]*rand.Rand, n)
	for i := range out {
		out[i] = rand.New(rand.NewSource(parent.Int63()))
	}
	return out
}
