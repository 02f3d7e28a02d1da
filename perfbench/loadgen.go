package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"pathsep/internal/oracle"
)

// spinWindow is how long before a due time the generator stops sleeping
// and spins. Go timers wake up to a millisecond late on an idle process,
// so the generator sleeps in nanosleep with the thread's timer slack cut
// to a microsecond, then spins the rest.
const spinWindow = 15 * time.Microsecond

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK: the kernel may defer a
// thread's timed sleep by its slack, 50 µs by default.
const prSetTimerSlack = 29

// waitUntil returns at t, or at once when t has passed.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d <= spinWindow {
			for time.Now().Before(t) {
			}
			return
		}
		// Slack is per thread and the goroutine may have moved, so it is
		// set before each nap. On failure the nap just ends later.
		_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
		ts := syscall.NsecToTimespec(int64(d - spinWindow))
		// An interrupted nap just ends early; the loop re-checks the time.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// answers is one image's expected reply for every entry of a readPool, as
// the JSON tokens the server must write: the distance (shortest
// round-trip formatting, so equal tokens mean equal float64 bits, or null
// for +Inf) and, for path entries, the walk's vertex list.
type answers struct {
	dist [][]byte
	path [][]byte
}

// readPool is the fixed request stream of the read phases: seeded
// uniform pairs, 80% GET /query and 20% GET /query/path, with each
// request pre-built and each expected answer computed in-process.
type readPool struct {
	pairs   []oracle.Pair
	isPath  []bool
	targets []string  // request path and query
	want    []answers // one per image the server may hold
}

func newReadPool(pairs []oracle.Pair, isPath []bool, images ...*oracle.Flat) (*readPool, error) {
	p := &readPool{pairs: pairs, isPath: isPath, targets: make([]string, len(pairs))}
	for i, pr := range pairs {
		ep := "/query"
		if isPath[i] {
			ep = "/query/path"
		}
		p.targets[i] = ep + "?u=" + strconv.Itoa(int(pr.U)) + "&v=" + strconv.Itoa(int(pr.V))
	}
	for _, fl := range images {
		a := answers{dist: make([][]byte, len(pairs)), path: make([][]byte, len(pairs))}
		var buf []int32
		for i, pr := range pairs {
			a.dist[i] = distToken(fl.Query(int(pr.U), int(pr.V)))
			if !isPath[i] {
				continue
			}
			var err error
			if _, buf, err = fl.QueryPath(int(pr.U), int(pr.V), buf[:0]); err != nil {
				return nil, fmt.Errorf("expected walk (%d,%d): %w", pr.U, pr.V, err)
			}
			a.path[i] = []byte{}
			for k, v := range buf {
				if k > 0 {
					a.path[i] = append(a.path[i], ',')
				}
				a.path[i] = strconv.AppendInt(a.path[i], int64(v), 10)
			}
		}
		p.want = append(p.want, a)
	}
	return p, nil
}

// distToken is the JSON token of a distance: the shortest decimal that
// reads back as d, or null for +Inf.
func distToken(d float64) []byte {
	if math.IsInf(d, 1) {
		return []byte("null")
	}
	return strconv.AppendFloat(nil, d, 'g', -1, 64)
}

var (
	keyDist = []byte(`"dist":`)
	keyPath = []byte(`"path":`)
	keyNs   = []byte(`"ns":`)
)

// field returns the raw JSON token after key up to the next ',' or '}',
// or, for an array, the text between its brackets.
func field(body, key []byte) []byte {
	i := bytes.Index(body, key)
	if i < 0 {
		return nil
	}
	rest := body[i+len(key):]
	if len(rest) > 0 && rest[0] == '[' {
		if j := bytes.IndexByte(rest, ']'); j >= 0 {
			return rest[1:j]
		}
		return nil
	}
	if j := bytes.IndexAny(rest, ",}"); j >= 0 {
		return rest[:j]
	}
	return nil
}

// matches reports whether body is image img's answer to request i, bit
// for bit, and returns the handler's "ns" field. It allocates nothing, so
// the load generator never assists the collector.
func (p *readPool) matches(i, img int, body []byte) (bool, int64) {
	a := &p.want[img]
	if !bytes.Equal(field(body, keyDist), a.dist[i]) {
		return false, 0
	}
	if p.isPath[i] && !bytes.Equal(field(body, keyPath), a.path[i]) {
		return false, 0
	}
	tok := field(body, keyNs)
	var ns int64
	for _, c := range tok {
		if c < '0' || c > '9' {
			return false, 0
		}
		ns = ns*10 + int64(c-'0')
	}
	return len(tok) > 0, ns
}

// anyImage stands for either reload image: in the reload phase a swap
// may land while a read is in flight.
const anyImage = -1

// matchesImage is matches for image img, or for any image when img is
// anyImage.
func (p *readPool) matchesImage(i, img int, body []byte) (bool, int64) {
	if img != anyImage {
		return p.matches(i, img, body)
	}
	for k := range p.want {
		if ok, ns := p.matches(i, k, body); ok {
			return true, ns
		}
	}
	return false, 0
}

// sample is one request of an open-loop phase, times relative to the
// phase start.
type sample struct {
	due, sent, done time.Duration
	late            time.Duration // sent − max(due, previous reply's done)
	backlog         int           // requests already due and not yet sent, at send time
	srvNs           int64         // the handler's own "ns" field
	path, ok        bool
}

// reqIDs numbers requests across the run, for trace spans.
var reqIDs atomic.Int64

// openLoop sends pool requests on c at a fixed schedule: request k is due
// at start+offset+k·gap, for every due time before stop. A request is
// sent at its due time or, when the previous reply is late, as soon as
// the connection is free; its latency is taken from the due time. Every
// reply must be image img's answer (or either image's, for anyImage).
// Sending stops early, with the rest of the schedule left unsent, once the
// generator falls abandonLag behind.
func openLoop(c *client, pool *readPool, img, first int, start time.Time, offset, gap time.Duration, stop time.Time,
	chk *checker, tr *tracer, parent int) (samples []sample, unsent int) {
	const abandonLag = time.Second
	n := int(stop.Sub(start.Add(offset))/gap) + 1
	if stop.Before(start.Add(offset)) {
		n = 0
	}
	samples = make([]sample, 0, n)
	var prevDone time.Duration
	for k := 0; k < n; k++ {
		due := offset + time.Duration(k)*gap
		waitUntil(start.Add(due))
		i := (first + k) % len(pool.pairs)
		t0 := time.Now()
		sent := t0.Sub(start)
		if sent-due > abandonLag {
			return samples, n - k
		}
		backlog := int((sent-offset)/gap) - k
		status, body, err := c.get(pool.targets[i])
		t1 := time.Now()
		s := sample{due: due, sent: sent, done: t1.Sub(start), late: sent - max(due, prevDone),
			backlog: max(backlog, 0), path: pool.isPath[i]}
		prevDone = s.done
		switch {
		case err != nil:
			chk.fail("GET %s: %v", pool.targets[i], err)
		case status != http.StatusOK:
			chk.fail("GET %s: status %d", pool.targets[i], status)
		default:
			if s.ok, s.srvNs = pool.matchesImage(i, img, body); s.ok {
				chk.pass(1)
			} else {
				chk.fail("GET %s: answer %q is not the serving image's", pool.targets[i], body)
			}
		}
		name := "serve.query"
		if s.path {
			name = "serve.path"
		}
		tr.record(name, layerServe, parent, reqIDs.Add(1), t0, t1)
		samples = append(samples, s)
	}
	return samples, 0
}

// windowLen is the number of requests, in due order, over which one
// latency percentile is taken. A phase's p50 and p99 are the medians of
// its windows' percentiles: each window's p99 has ten samples beyond it,
// and a stall confined to one window (a hypervisor hiccup, say) moves
// no reported number.
const windowLen = 1000

// readRun is one run of an open-loop phase: each connection's samples in
// send order, the requests left unsent, and the scheduled duration.
type readRun struct {
	conns  [][]sample
	unsent int
	dur    time.Duration
}

// readStats summarizes the runs of one open-loop phase.
type readStats struct {
	n, unsent  int
	dur        time.Duration // scheduled time the runs took together
	p50, p99   float64       // latency from due time, median over windows, µs
	windows    []float64     // each window's p99, µs
	lateP99    float64       // p99 send delay past max(due, previous reply), median over windows, µs
	backlogMax int           // the most requests ever due and unsent
	rate       float64       // replies per second over the runs
	queryRTT   []float64     // GET /query round trips, µs
	srvShare   []float64     // GET /query handler "ns" ÷ round trip
}

// summarize pools the samples of runs and cuts them, in due order within
// a run, into windows of windowLen.
func summarize(runs ...readRun) readStats {
	var st readStats
	var all []sample
	for _, run := range runs {
		st.unsent += run.unsent
		st.dur += run.dur
		for _, ss := range run.conns {
			for _, s := range ss {
				st.backlogMax = max(st.backlogMax, s.backlog)
				if rtt := float64(s.done - s.sent); s.ok && !s.path {
					st.queryRTT = append(st.queryRTT, rtt/1e3)
					st.srvShare = append(st.srvShare, float64(s.srvNs)/rtt)
				}
			}
		}
		merged := slices.Concat(run.conns...)
		sort.Slice(merged, func(i, j int) bool { return merged[i].due < merged[j].due })
		all = append(all, merged...)
	}
	st.n = len(all)
	var p50s, lates []float64
	for lo := 0; lo < len(all); lo += windowLen {
		// A short tail joins the window before it.
		hi := lo + windowLen
		if len(all)-hi < windowLen {
			hi = len(all)
		}
		lat := make([]float64, 0, hi-lo)
		late := make([]float64, 0, hi-lo)
		for _, s := range all[lo:hi] {
			lat = append(lat, float64(s.done-s.due)/1e3)
			late = append(late, float64(s.late)/1e3)
		}
		p50s = append(p50s, quantile(lat, 0.5))
		st.windows = append(st.windows, quantile(lat, 0.99))
		lates = append(lates, quantile(late, 0.99))
		if hi == len(all) {
			break
		}
	}
	st.p50 = median(p50s)
	st.p99 = median(st.windows)
	st.lateP99 = median(lates)
	st.rate = float64(st.n) / st.dur.Seconds()
	return st
}
