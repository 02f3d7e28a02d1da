// Command perfbench is the repository's benchmark: it builds oracles from
// seeded graphs, serves them through the in-process serve.Server engine,
// drives the library, HTTP and reload paths, checks every answer, and
// prints one JSON result line. See README.md for the workloads and
// metrics, and run.sh for how it is built and run.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"pathsep/internal/obs"
	"pathsep/internal/oracle"
)

// workload is one input set and the share of the run each phase gets.
// Every workload runs every phase, so every metric is measured on every
// input; the shares put most of the time where the workload's layer is.
// Why each workload exists is in BENCHMARK.json and README.md.
type workload struct {
	name      string
	gen, tiny genFunc
	// Shares of each round: library phases (split 40/30/30 between Query,
	// QueryPath and QueryBatch), lo-rate reads under reloads, the hi-rate
	// phase, closed-loop reads, and the batchbin phase.
	lib, lo, hi, closed, batch float64
	reloadEvery                time.Duration
	checks                     int // pairs checked against exact bidirectional Dijkstra
}

var workloads = []workload{
	{
		name: "lib-grid96",
		gen:  gridGen(96), tiny: gridGen(8),
		lib: 0.54, lo: 0.1, hi: 0.03, closed: 0.08, batch: 0.25,
		reloadEvery: 500 * time.Millisecond, checks: 48,
	},
	{
		name: "http-ktree",
		gen:  ktreeGen(1024, 3), tiny: ktreeGen(64, 3),
		lib: 0.2, lo: 0.15, hi: 0.05, closed: 0.3, batch: 0.3,
		reloadEvery: 100 * time.Millisecond, checks: 256,
	},
	{
		name: "http-reload-grid64",
		gen:  gridGen(64), tiny: gridGen(6),
		lib: 0.1, lo: 0.5, hi: 0.05, closed: 0.1, batch: 0.25,
		reloadEvery: 110 * time.Millisecond, checks: 128,
	},
}

// graphSeed fixes every workload's graph: image A is built from it and
// image B, the other side of every reload, from graphSeed+1. The run's
// --seed drives everything sent to the program. The graph is part of the
// workload, so the query cost of a run does not depend on which random
// graph a seed happens to draw.
const graphSeed = 1

// loRate and hiRate are the open-loop read rates (requests/s): 10% and
// 60% of the closed-loop read rate the parent commit sustains, its median
// http_read_qps on http-ktree (README.md gives the measurement). They are
// fixed here, never derived per run, so a faster server cannot move its
// own yardstick.
const (
	loRate = 5500
	hiRate = 33000
)

// Fixed sizes of the generated inputs.
const (
	setups      = 5       // set-ups per run; setup_s is their median
	rounds      = 20      // measured rounds per run
	libPool     = 1 << 15 // pairs cycled by the library phases
	readPoolLen = 1 << 12 // requests cycled by the read phases
	pathShare   = 0.2     // share of reads that are GET /query/path
	numBodies   = 16      // distinct batchbin bodies
	batchPairs  = 1024    // pairs per batchbin body
	// lateBoundUs bounds the generator's own p99 lateness in the hi phase,
	// where it sends most and no reload competes for the CPU. When the
	// generator ran later than this, the run's open-loop numbers
	// (read_p*_us) measure the generator, not the server,
	// and the run marks them invalid. The end-to-end metrics come from
	// library calls and closed-loop exchanges, which no schedule can
	// distort, so they stand.
	lateBoundUs = 2000
)

type config struct {
	w        workload
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	traceOut string
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	name := flag.String("workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.BoolVar(&cfg.tiny, "tiny", false, "tiny inputs and phases (self-test size)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>-<seed>.jsonl)")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	found := false
	for _, w := range workloads {
		if w.name == *name {
			cfg.w, found = w, true
		}
	}
	if !found || cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if cfg.trace && cfg.traceOut == "" {
		cfg.traceOut = fmt.Sprintf(".bench_build/trace-%s-%d.jsonl", cfg.w.name, cfg.seed)
	}
	out := bufio.NewWriter(os.Stdout)
	res, err := run(cfg, out)
	if err == nil {
		err = printResult(out, res)
	}
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// printResult writes the result as the last line; a non-finite metric is
// an error, never a printed number.
func printResult(w io.Writer, res result) error {
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s was not measured (%v)", k, m.Value)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// provenance is logged before the result so every record says what ran
// where, and on which seed.
func provenance(cfg config) map[string]any {
	return map[string]any{
		"commit":     envOr("PERFBENCH_COMMIT", "unknown"),
		"source":     envOr("PERFBENCH_SOURCE", "unknown"),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"seed":       cfg.seed,
		"workload":   cfg.w.name,
		"trace":      cfg.trace,
		"seconds":    cfg.seconds,
		"tiny":       cfg.tiny,
	}
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// gcSample reads the runtime's GC pause histogram and CPU split.
type gcSample struct {
	pauses        *metrics.Float64Histogram
	gcCPU, allCPU float64
}

var gcMetrics = []string{"/sched/pauses/total/gc:seconds", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcMetrics))
	for i, n := range gcMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	var g gcSample
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		g.pauses = s[0].Value.Float64Histogram()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		g.allCPU = s[2].Value.Float64()
	}
	return g
}

// gcBetween returns the p99 GC pause (µs) and the GC share of CPU time
// between two samples.
func gcBetween(a, b gcSample) (p99Us, cpuFrac float64) {
	if b.allCPU > a.allCPU {
		cpuFrac = (b.gcCPU - a.gcCPU) / (b.allCPU - a.allCPU)
	}
	if a.pauses == nil || b.pauses == nil {
		return math.NaN(), cpuFrac
	}
	var total uint64
	counts := make([]uint64, len(b.pauses.Counts))
	for i := range counts {
		counts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0, cpuFrac
	}
	target := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= target {
			hi := b.pauses.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.pauses.Buckets[i]
			}
			return hi * 1e6, cpuFrac
		}
	}
	return math.NaN(), cpuFrac
}

// run executes one workload run and returns its result. Progress and
// provenance go to out as JSON lines before the result.
func run(cfg config, out io.Writer) (result, error) {
	w := cfg.w
	gen, T, nSetups, nRounds, checks := w.gen, cfg.seconds, setups, rounds, w.checks
	if cfg.tiny {
		gen, nSetups, nRounds, checks = w.tiny, 1, 2, 8
	}
	prov, _ := json.Marshal(map[string]any{"provenance": provenance(cfg)})
	fmt.Fprintf(out, "%s\n", prov)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	chk := &checker{}
	root := tr.begin("run", layerBench, -1)
	// secs is a phase's share of one round.
	secs := func(share float64) time.Duration {
		return time.Duration(share * T / float64(nRounds) * float64(time.Second))
	}

	// Set-up, several times: inputs, Decompose, Build, Freeze, Encode,
	// DecodeFlat, and a serving engine answering /healthz. The last one's
	// products are kept.
	var (
		setupS []float64
		allSt  []stages
		imA    *image
		srv    *server
		srvReg *obs.Registry
		bReg   *obs.Registry
	)
	for range nSetups {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return result{}, fmt.Errorf("stop server: %w", err)
			}
		}
		imA, srv = nil, nil
		runtime.GC()
		if cfg.trace {
			bReg = obs.New()
		}
		srvReg = obs.New()
		sp := tr.begin("setup", layerBench, root)
		t0 := time.Now()
		im, err := buildImage(gen, graphSeed, bReg, tr, sp)
		if err != nil {
			return result{}, err
		}
		sid := tr.begin("serve.start", layerServe, sp)
		s, err := startServer(im.flat, srvReg)
		tr.end(sid)
		if err != nil {
			return result{}, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		tr.end(sp)
		allSt = append(allSt, im.stages)
		imA, srv = im, s
	}
	defer func() { _ = srv.stop() }()

	// Untimed: the second reload image, a metrics-free decode of
	// image A for the library phases, the request streams and their
	// expected answers, and the sampled checks against exact distances.
	imB, err := buildImage(gen, graphSeed+1, nil, nil, -1)
	if err != nil {
		return result{}, err
	}
	flA, err := oracle.DecodeFlat(imA.bytes)
	if err != nil {
		return result{}, fmt.Errorf("decode image A: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	n := imA.g.N()
	pool := make([]oracle.Pair, libPool)
	for i := range pool {
		pool[i] = oracle.Pair{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
	}
	reads := make([]oracle.Pair, readPoolLen)
	isPath := make([]bool, readPoolLen)
	for i := range reads {
		reads[i] = oracle.Pair{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
		isPath[i] = rng.Float64() < pathShare
	}
	rp, err := newReadPool(reads, isPath, flA, imB.flat)
	if err != nil {
		return result{}, err
	}
	bodies, wantA := batchBodies(flA, pool, numBodies, batchPairs)
	_, wantB := batchBodies(imB.flat, pool, numBodies, batchPairs)
	cid := tr.begin("checks", layerBench, root)
	stretchA := checkImage(chk, imA.g, flA, checks, pool[:readPoolLen], rng)
	stretchB := checkImage(chk, imB.g, imB.flat, checks, pool[:readPoolLen], rng)
	tr.end(cid)
	want := wantDists(flA, pool)
	// Only the encoded images and the decode the library phases use stay
	// alive: a daemon holds no graph, and a big pointerful heap would make
	// every collection during the rounds slower than the daemon's.
	imA.g, imB.g, imB.flat = nil, nil, nil
	runtime.GC()
	logRSS(out, "after_setup")

	// The measured rounds. Each runs every phase for its share of the
	// round: the library calls on the metrics-free decode, lo-rate reads
	// under reloads, the hi rate, closed-loop reads, and binary batches. Every metric is a median over all
	// rounds, so a burst of interference covering less than half the run
	// moves none.
	var (
		lib            libAcc
		loRuns, hiRuns []readRun
		rel            reloadStats
		httpBatch      []float64
		httpReads      []float64
		batchRTT       []float64
		reloadAlloc    uint64
		ms0, ms1       runtime.MemStats
	)
	// Two keep-alive read connections for the whole run, and a third
	// for reloads.
	conns := [2]*client{newClient(srv.addr), newClient(srv.addr)}
	rl := &reloader{c: newClient(srv.addr), images: [2][]byte{imA.bytes, imB.bytes}, gen: 1}
	defer func() {
		conns[0].close()
		conns[1].close()
		rl.c.close()
	}()
	wantBin := [2][][]byte{wantA, wantB}
	gc0 := readGC()
	for r := range nRounds {
		rs := tr.begin("round", layerBench, root)
		lib.run(flA, pool, want, [3]time.Duration{secs(0.4 * w.lib), secs(0.3 * w.lib), secs(0.3 * w.lib)}, chk, tr, rs)
		runtime.ReadMemStats(&ms0)
		lo, st := reloadPhase(conns[0], rp, rl, r*readPoolLen/nRounds, loRate, w.reloadEvery, secs(w.lo), chk, tr, rs)
		runtime.ReadMemStats(&ms1)
		reloadAlloc += ms1.TotalAlloc - ms0.TotalAlloc
		loRuns = append(loRuns, lo)
		rel.add(st)
		// The swapped-out images are garbage now; collect them here rather
		// than in the middle of a later phase. Their pages stay mapped:
		// handing them back to the kernel would make later phases fault
		// them in again.
		runtime.GC()
		hiRuns = append(hiRuns, readPhase(conns, rp, rl.cur, r*readPoolLen/nRounds, hiRate, secs(w.hi), chk, tr, rs, "phase.hi"))
		httpReads = append(httpReads, closedReads(conns, rp, rl.cur, r*997, secs(w.closed), chk, tr, rs))
		bRates, rtts := batchbin(conns[0], bodies, wantBin[rl.cur], secs(w.batch), chk, tr, rs)
		httpBatch = append(httpBatch, bRates...)
		batchRTT = append(batchRTT, rtts...)
		tr.end(rs)
	}
	gc1 := readGC()
	lo, hi := summarize(loRuns...), summarize(hiRuns...)
	logPhase(out, "lo_reload", lo)
	logPhase(out, "hi", hi)
	logRSS(out, "after_rounds")

	// Tiny phases are too short to judge.
	openLoopValid := hi.lateP99 <= lateBoundUs || cfg.tiny
	valid, _ := json.Marshal(map[string]any{"open_loop_valid": openLoopValid, "hi_late_p99_us": hi.lateP99, "bound_us": lateBoundUs})
	fmt.Fprintf(out, "%s\n", valid)

	res := result{Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	e2e := map[string]metric{}
	putE2E := func(name, unit string, v float64) { e2e[name] = metric{Value: v, Unit: unit} }
	putE2E("setup_s", "s", median(setupS))
	putE2E("image_bytes_per_vertex", "B", float64(len(imA.bytes))/float64(n))
	putE2E("dist_qps", "1/s", median(lib.dist))
	putE2E("path_qps", "1/s", median(lib.path))
	putE2E("batch_pairs_per_s", "1/s", median(lib.batch))
	putE2E("http_read_qps", "1/s", median(httpReads))
	putE2E("http_batch_pairs_per_s", "1/s", median(httpBatch))
	putE2E("reload_p50_ms", "ms", quantile(rel.rttMs, 0.5))
	putE2E("peak_rss_mb", "MB", peakRSSMB())

	if cfg.trace {
		// Per-layer numbers from the program's own instruments and from
		// direct calls, after the timed phases so they perturb none.
		rp2 := tr.begin("phase.replay", layerBench, root)
		var qReqs, pReqs, bReqs []*http.Request
		for i, t := range rp.targets {
			if isPath[i] && len(pReqs) < 500 {
				pReqs = append(pReqs, httptest.NewRequest(http.MethodGet, t, nil))
			} else if !isPath[i] && len(qReqs) < 2000 {
				qReqs = append(qReqs, httptest.NewRequest(http.MethodGet, t, nil))
			}
		}
		for i := range 100 {
			bReqs = append(bReqs, httptest.NewRequest(http.MethodPost, "/query/batchbin", bytes.NewReader(bodies[i%len(bodies)])))
		}
		h := srv.s.Handler()
		hq := handlerTimes(h, qReqs, chk, tr, rp2, "serve.handler.query")
		hp := handlerTimes(h, pReqs, chk, tr, rp2, "serve.handler.path")
		hb := handlerTimes(h, bReqs, chk, tr, rp2, "serve.handler.batchbin")
		tr.end(rp2)

		instr, err := oracle.DecodeFlat(imA.bytes)
		if err != nil {
			return result{}, fmt.Errorf("decode image A: %w", err)
		}
		qReg := obs.New()
		instr.SetMetrics(qReg)
		for _, p := range pool[:distRound] {
			instr.Query(int(p.U), int(p.V))
		}
		portals := qReg.Snapshot().Histograms["oracle.query_portals"]

		st := medianStages(allSt)
		bsnap := bReg.Snapshot()
		put("build.decompose_s", "s", st.decompose.Seconds())
		put("build.oracle_s", "s", st.oracle.Seconds())
		put("build.freeze_s", "s", st.freeze.Seconds())
		put("build.encode_s", "s", st.encode.Seconds())
		put("build.alloc_mb", "MB", float64(st.allocBytes)/1e6)
		put("core.nodes", "count", float64(imA.nodes))
		put("core.separator_paths", "count", float64(imA.sepPaths))
		put("shortest.settled", "count", float64(bsnap.Counters["shortest.settled"]))
		put("shortest.edges_scanned", "count", float64(bsnap.Counters["shortest.edges_scanned"]))
		put("oracle.keys", "count", float64(flA.NumKeys()))
		put("oracle.entries", "count", float64(flA.NumEntries()))
		put("oracle.portals", "count", float64(flA.NumPortals()))
		put("load.decode_ms", "ms", float64(st.decode)/1e6)
		put("load.decode_ms_per_mb", "ms/MB", float64(st.decode)/1e6/(float64(len(imA.bytes))/1e6))
		put("load.reload_load_ms", "ms", median(rel.loadMs))
		put("load.reload_swap_drain_ms", "ms", median(rel.swapDrainMs))
		put("load.reload_drained_ratio", "ratio", float64(rel.drained)/float64(len(rel.rttMs)))
		put("load.alloc_mb_per_reload", "MB", float64(reloadAlloc)/1e6/float64(len(rel.rttMs)))
		put("query.stretch_max", "ratio", math.Max(stretchA.max, stretchB.max))
		put("query.stretch_over_eps", "count", float64(stretchA.overEps+stretchB.overEps))
		put("query.dist_ns", "ns", 1e9/median(lib.dist))
		put("query.portals_p50", "count", histQuantile(portals, 0.5))
		put("query.portals_p99", "count", histQuantile(portals, 0.99))
		put("query.allocs_per_op", "count", allocsPerQuery(flA, pool[:distRound]))
		put("query.path_ns", "ns", 1e9/median(lib.path))
		put("query.path_len", "count", lib.verts/lib.walks)
		put("query.batch_ns_per_pair", "ns", 1e9/median(lib.batch))
		put("serve.handler_us.query", "us", hq)
		put("serve.handler_us.path", "us", hp)
		put("serve.handler_us.batchbin", "us", hb)
		put("serve.net_us", "us", median(hi.queryRTT)-hq)
		put("serve.oracle_share", "ratio", median(hi.srvShare))
		put("serve.request_ns_p50", "ns", histQuantile(srvReg.Snapshot().Histograms["serve.request_ns"], 0.5))
		put("serve.batchbin_rtt_us", "us", median(batchRTT))
		// The open-loop latencies and the reload tail spread too far
		// between runs on a shared 2-vCPU machine to carry a regression
		// bound (README.md lists the spreads), so they are reported here,
		// unbounded.
		put("read_p50_us.lo", "us", lo.p50)
		put("read_p99_us.lo", "us", lo.p99)
		put("read_p50_us.hi", "us", hi.p50)
		put("read_p99_us.hi", "us", hi.p99)
		put("reload_p90_ms", "ms", quantile(rel.rttMs, 0.9))
		put("loadgen.late_p99_us", "us", max(lo.lateP99, hi.lateP99))
		put("loadgen.valid", "bool", map[bool]float64{false: 0, true: 1}[openLoopValid])
		put("loadgen.backlog_max", "count", float64(max(lo.backlogMax, hi.backlogMax)))
		gcP99, gcFrac := gcBetween(gc0, gc1)
		put("runtime.gc_pause_p99_us", "us", gcP99)
		put("runtime.gc_cpu_fraction", "ratio", gcFrac)
		tr.end(root)
		for l, s := range selfTimes(tr.spans) {
			put("self_s."+l, "s", s)
		}
		put("trace.spans", "count", float64(len(tr.spans)))
		put("trace.overhead_share", "ratio", spanCost()*float64(len(tr.spans))/float64(tr.spans[root].End-tr.spans[root].Start))
		if err := tr.write(cfg.traceOut); err != nil {
			return result{}, err
		}
		traced, _ := json.Marshal(map[string]any{"traced_end_to_end": e2e})
		fmt.Fprintf(out, "%s\n", traced)
	}
	if !cfg.trace {
		res.Metrics = e2e
	}
	if len(chk.msgs) > 0 {
		logged, _ := json.Marshal(map[string]any{"failures": chk.msgs})
		fmt.Fprintf(out, "%s\n", logged)
	}
	res.Attempted, res.Failed = chk.attempted.Load(), chk.failed.Load()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// logRSS writes the peak resident set so far.
func logRSS(out io.Writer, at string) {
	line, _ := json.Marshal(map[string]any{"peak_rss_mb": peakRSSMB(), "at": at})
	fmt.Fprintf(out, "%s\n", line)
}

// logPhase writes one open-loop phase's summary as a JSON line.
func logPhase(out io.Writer, name string, st readStats) {
	round := func(xs ...float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = math.Round(x*10) / 10
		}
		return out
	}
	line, _ := json.Marshal(map[string]any{"phase": name, "n": st.n, "unsent": st.unsent, "rate": round(st.rate)[0],
		"p50_us": round(st.p50)[0], "p99_us": round(st.p99)[0], "late_p99_us": round(st.lateP99)[0],
		"backlog_max": st.backlogMax, "window_p99_us": round(st.windows...)})
	fmt.Fprintf(out, "%s\n", line)
}

// medianStages is the stage-wise median over set-ups.
func medianStages(all []stages) stages {
	pick := func(f func(stages) float64) float64 {
		xs := make([]float64, len(all))
		for i, s := range all {
			xs[i] = f(s)
		}
		return median(xs)
	}
	dur := func(f func(stages) time.Duration) time.Duration {
		return time.Duration(pick(func(s stages) float64 { return float64(f(s)) }))
	}
	return stages{
		decompose:  dur(func(s stages) time.Duration { return s.decompose }),
		oracle:     dur(func(s stages) time.Duration { return s.oracle }),
		freeze:     dur(func(s stages) time.Duration { return s.freeze }),
		encode:     dur(func(s stages) time.Duration { return s.encode }),
		decode:     dur(func(s stages) time.Duration { return s.decode }),
		allocBytes: uint64(pick(func(s stages) float64 { return float64(s.allocBytes) })),
	}
}

// spanCost is the measured cost of recording one span, in ns.
func spanCost() float64 {
	t := newTracer()
	const n = 1 << 14
	t0 := time.Now()
	for range n {
		t.end(t.begin("x", layerBench, -1))
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}
