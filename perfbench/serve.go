package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"pathsep/internal/obs"
	"pathsep/internal/oracle"
	"pathsep/internal/serve"
)

// server is an in-process serve.Server engine on a loopback port,
// configured as cmd/pathsepd is by default (16 slow-query exemplars).
type server struct {
	s    *serve.Server
	reg  *obs.Registry
	addr string
}

// startServer serves fl and returns once GET /healthz answers.
func startServer(fl *oracle.Flat, reg *obs.Registry) (*server, error) {
	s, err := serve.New(serve.Config{Flat: fl, Reg: reg, Slow: obs.NewSlowQuerySampler(16), Source: "perfbench"})
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &server{s: s, reg: reg, addr: addr.String()}
	c := newClient(srv.addr)
	defer c.close()
	status, _, err := c.get("/healthz")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		_ = srv.stop()
		return nil, fmt.Errorf("server not ready: %w", err)
	}
	return srv, nil
}

func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.s.Shutdown(ctx)
}

// reloadStats are the client-side and server-reported costs of the
// reloads of one phase, or of several added up.
type reloadStats struct {
	rttMs, loadMs, swapDrainMs []float64
	drained                    int
}

func (r *reloadStats) add(o reloadStats) {
	r.rttMs = append(r.rttMs, o.rttMs...)
	r.loadMs = append(r.loadMs, o.loadMs...)
	r.swapDrainMs = append(r.swapDrainMs, o.swapDrainMs...)
	r.drained += o.drained
}

// reloader alternates POST /admin/reload between two encoded images on
// its own connection and checks that each answer raises the generation by
// exactly one.
type reloader struct {
	c      *client
	images [2][]byte
	cur    int    // index of the serving image
	gen    uint64 // its generation
}

// reload swaps in image to and books the result.
func (r *reloader) reload(to int, st *reloadStats, chk *checker, tr *tracer, parent int) {
	t0 := time.Now()
	status, body, err := r.c.post("/admin/reload", r.images[to])
	t1 := time.Now()
	tr.record("load.reload", layerLoad, parent, reqIDs.Add(1), t0, t1)
	if err != nil || status != http.StatusOK {
		chk.fail("POST /admin/reload: status %d, %v, %q", status, err, body)
		return
	}
	var res serve.ReloadResult
	if err := json.Unmarshal(body, &res); err != nil {
		chk.fail("reload reply %q: %v", body, err)
		return
	}
	if res.Previous != r.gen || res.Generation != r.gen+1 {
		chk.fail("reload: generation %d -> %d, expected %d -> %d", res.Previous, res.Generation, r.gen, r.gen+1)
	} else {
		chk.pass(1)
	}
	r.cur, r.gen = to, res.Generation
	st.rttMs = append(st.rttMs, float64(t1.Sub(t0))/1e6)
	st.loadMs = append(st.loadMs, float64(res.LoadNs)/1e6)
	st.swapDrainMs = append(st.swapDrainMs, float64(res.TotalNs-res.LoadNs)/1e6)
	if res.Drained {
		st.drained++
	}
}

// reloadPhase runs for d: one connection reads pool at rate (requests
// per second) while the reloader swaps images every interval on the
// other. Every read must equal either image's answer.
func reloadPhase(c *client, pool *readPool, rl *reloader, first int, rate float64, interval, d time.Duration,
	chk *checker, tr *tracer, parent int) (readRun, reloadStats) {
	phase := tr.begin("phase.lo_reload", layerBench, parent)
	defer tr.end(phase)
	start := time.Now().Add(5 * time.Millisecond)
	stop := start.Add(d)
	var samples []sample
	var unsent int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		samples, unsent = openLoop(c, pool, anyImage, first, start, 0, time.Duration(float64(time.Second)/rate), stop,
			chk, tr, phase)
	}()
	var st reloadStats
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * interval)
			if !due.Before(stop) {
				return
			}
			waitUntil(due)
			rl.reload(1-rl.cur, &st, chk, tr, phase)
		}
	}()
	wg.Wait()
	return readRun{conns: [][]sample{samples}, unsent: unsent, dur: d}, st
}

// readPhase reads pool at rate over two connections for d, the two
// schedules interleaved so the merged arrivals are evenly spaced. Every
// read must be image img's answer.
func readPhase(conns [2]*client, pool *readPool, img int, first int, rate float64, d time.Duration, chk *checker, tr *tracer, parent int, name string) readRun {
	phase := tr.begin(name, layerBench, parent)
	defer tr.end(phase)
	gap := time.Duration(2 * float64(time.Second) / rate)
	start := time.Now().Add(5 * time.Millisecond)
	stop := start.Add(d)
	var samples [2][]sample
	var unsent [2]int
	var wg sync.WaitGroup
	for j := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			samples[j], unsent[j] = openLoop(conns[j], pool, img, first+j*len(pool.pairs)/2, start, time.Duration(j)*gap/2, gap, stop,
				chk, tr, phase)
		}()
	}
	wg.Wait()
	return readRun{conns: [][]sample{samples[0], samples[1]}, unsent: unsent[0] + unsent[1], dur: d}
}

// closedReads sends pool reads back to back on two connections for d,
// each connection waiting for its reply before the next request, and
// returns the replies per second. Every read must be image img's answer.
func closedReads(conns [2]*client, pool *readPool, img int, first int, d time.Duration, chk *checker, tr *tracer, parent int) float64 {
	phase := tr.begin("phase.closed", layerBench, parent)
	defer tr.end(phase)
	stop := time.Now().Add(d)
	var done [2]int
	var wg sync.WaitGroup
	t0 := time.Now()
	for j := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := conns[j]
			for k := first + j*len(pool.pairs)/2; time.Now().Before(stop); k++ {
				i := k % len(pool.pairs)
				s0 := time.Now()
				status, body, err := c.get(pool.targets[i])
				s1 := time.Now()
				tr.record("serve.closed", layerServe, phase, reqIDs.Add(1), s0, s1)
				ok, _ := pool.matchesImage(i, img, body)
				switch {
				case err != nil || status != http.StatusOK:
					chk.fail("GET %s: status %d, %v", pool.targets[i], status, err)
				case !ok:
					chk.fail("GET %s: answer %q is not image %d's", pool.targets[i], body, img)
				default:
					chk.pass(1)
					done[j]++
				}
			}
		}()
	}
	wg.Wait()
	return float64(done[0]+done[1]) / time.Since(t0).Seconds()
}

// batchbin drives POST /query/batchbin closed-loop on one connection for
// d with 1024-pair bodies, comparing each reply byte for byte with the
// in-process QueryBatch answer of the serving image cur. It returns the
// pairs per second of each round of batchRoundReqs requests, and each
// round trip in µs.
func batchbin(c *client, bodies [][]byte, wants [][]byte, d time.Duration, chk *checker, tr *tracer, parent int) (rates, rtts []float64) {
	const batchRoundReqs = 16
	phase := tr.begin("phase.batchbin", layerBench, parent)
	defer tr.end(phase)
	k := 0
	for stop := time.Now().Add(d); time.Now().Before(stop); {
		t0 := time.Now()
		pairs := 0
		for range batchRoundReqs {
			i := k % len(bodies)
			k++
			s0 := time.Now()
			status, body, err := c.post("/query/batchbin", bodies[i])
			s1 := time.Now()
			tr.record("serve.batchbin", layerServe, phase, reqIDs.Add(1), s0, s1)
			rtts = append(rtts, float64(s1.Sub(s0))/1e3)
			switch {
			case err != nil || status != http.StatusOK:
				chk.fail("POST /query/batchbin: status %d, %v", status, err)
			case !bytes.Equal(body, wants[i]):
				chk.fail("POST /query/batchbin: body %d differs from QueryBatch", i)
			default:
				chk.pass(1)
				pairs += len(bodies[i]) / 8
			}
		}
		rates = append(rates, float64(pairs)/time.Since(t0).Seconds())
	}
	return rates, rtts
}

// batchBodies encodes pairs as n binary batch bodies of size pairs each,
// with the expected replies computed in-process by QueryBatch on fl.
func batchBodies(fl *oracle.Flat, pairs []oracle.Pair, n, size int) (bodies, wants [][]byte) {
	for b := range n {
		chunk := pairs[(b*size)%len(pairs):]
		chunk = chunk[:min(size, len(chunk))]
		body := make([]byte, 8*len(chunk))
		for i, p := range chunk {
			binary.LittleEndian.PutUint32(body[8*i:], uint32(p.U))
			binary.LittleEndian.PutUint32(body[8*i+4:], uint32(p.V))
		}
		dists := fl.QueryBatch(chunk, nil)
		want := make([]byte, 8*len(dists))
		for i, d := range dists {
			binary.LittleEndian.PutUint64(want[8*i:], math.Float64bits(d))
		}
		bodies, wants = append(bodies, body), append(wants, want)
	}
	return bodies, wants
}

// handlerTimes replays requests through Handler().ServeHTTP with a
// recorder, bypassing net/http and the client, and returns the median
// handler time in µs.
func handlerTimes(h http.Handler, reqs []*http.Request, chk *checker, tr *tracer, parent int, name string) float64 {
	times := make([]float64, 0, len(reqs))
	for _, r := range reqs {
		w := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		tr.record(name, layerServe, parent, reqIDs.Add(1), t0, t1)
		if w.Code != http.StatusOK {
			chk.fail("replay %s: status %d", r.URL.Path, w.Code)
			continue
		}
		chk.pass(1)
		times = append(times, float64(t1.Sub(t0))/1e3)
	}
	return median(times)
}
