package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pathsep/internal/oracle"
	"pathsep/internal/shortest"
)

// spec is the part of BENCHMARK.json the benchmark's output must match.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWorkloadsMatchSpec(t *testing.T) {
	var inSpec, inCode []string
	for _, w := range loadSpec(t).Workloads {
		inSpec = append(inSpec, w.Name)
	}
	for _, w := range workloads {
		inCode = append(inCode, w.name)
	}
	if !slices.Equal(inSpec, inCode) {
		t.Fatalf("BENCHMARK.json workloads %v, code %v", inSpec, inCode)
	}
}

// TestTinyRuns runs every workload at tiny size, untraced and traced, and
// checks that the last line carries exactly the metrics BENCHMARK.json
// names, each with its unit, and that every checked answer was right.
func TestTinyRuns(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(w.name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				cfg := config{w: w, seed: 7, seconds: 1, trace: traced, tiny: true,
					traceOut: filepath.Join(t.TempDir(), "spans.jsonl")}
				var out bytes.Buffer
				res, err := run(cfg, &out)
				if err != nil {
					t.Fatal(err)
				}
				if err := printResult(&out, res); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var got result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", got.Correct, got.Attempted, got.Failed, out.String())
				}
				want := s.EndToEnd
				if traced {
					want = s.PerLayer
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(got.Metrics), len(want))
				}
				for _, m := range want {
					if g, ok := got.Metrics[m.Name]; !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if g.Unit != m.Unit {
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
					}
				}
				if traced {
					if _, err := os.Stat(cfg.traceOut); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
			})
		}
	}
}

// TestCheckerCountsWrongAnswers feeds the answer checks deliberately
// wrong distances and walks; each must count as a failure.
func TestCheckerCountsWrongAnswers(t *testing.T) {
	im, err := buildImage(gridGen(5), 3, nil, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	g, fl := im.g, im.flat
	u, v := 0, g.N()-1
	d, path, err := fl.QueryPath(u, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	truth := shortest.Bidirectional(g, u, v)
	stretch := promisedStretch(fl.Mode(), fl.Eps())

	if err := stretchErr(u, v, truth, d, stretch); err != nil {
		t.Fatalf("right distance rejected: %v", err)
	}
	if err := walkErr(g, u, v, d, path); err != nil {
		t.Fatalf("right walk rejected: %v", err)
	}
	offEdge := slices.Clone(path)
	offEdge[1] = int32(v) // a jump straight to the far corner
	wrong := []error{
		stretchErr(u, v, truth, truth*0.99, stretch),         // below the true distance
		stretchErr(u, v, truth, truth*stretch*1.01, stretch), // above the promise
		walkErr(g, u, v, d*1.001, path),                      // walk weighs less than claimed
		walkErr(g, u, v, d, offEdge),                         // steps off the graph
		walkErr(g, u, v, d, path[:len(path)-1]),              // stops short of v
		walkErr(g, u, v, d, nil),                             // no walk at all
		stretchErr(u, v, truth, math.Inf(1), stretch),        // unreachable claimed
		stretchErr(u, v, truth, math.NaN(), stretch),         // not a number
		walkErr(g, u, v, math.NaN(), path),                   // not a number
	}
	c := &checker{}
	for i, err := range wrong {
		if err == nil {
			t.Errorf("wrong answer %d passed the check", i)
		}
		c.verify(err)
	}
	if c.failed.Load() != int64(len(wrong)) || c.attempted.Load() != int64(len(wrong)) {
		t.Errorf("checker counted %d failed of %d attempted, want %d of %d",
			c.failed.Load(), c.attempted.Load(), len(wrong), len(wrong))
	}

	// An HTTP answer off by one bit, or with a wrong walk vertex, matches
	// no image.
	pool, err := newReadPool([]oracle.Pair{{U: int32(u), V: int32(v)}, {U: int32(u), V: int32(v)}}, []bool{false, true}, fl)
	if err != nil {
		t.Fatal(err)
	}
	dist := strconv.FormatFloat(d, 'g', -1, 64)
	bad := strconv.FormatFloat(math.Nextafter(d, math.Inf(1)), 'g', -1, 64)
	walk := func(p []int32) string {
		var b strings.Builder
		for i, x := range p {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(int(x)))
		}
		return b.String()
	}
	for _, tc := range []struct {
		i    int
		body string
		ok   bool
	}{
		{0, `{"u":0,"v":24,"dist":` + dist + `,"ns":5}`, true},
		{0, `{"u":0,"v":24,"dist":` + bad + `,"ns":5}`, false},
		{1, `{"u":0,"v":24,"dist":` + dist + `,"len":1,"path":[` + walk(path) + `],"ns":5}`, true},
		{1, `{"u":0,"v":24,"dist":` + dist + `,"len":1,"path":[` + walk(offEdge) + `],"ns":5}`, false},
		{1, `{"u":0,"v":24,"dist":` + dist + `,"len":1,"path":[` + walk(path[:len(path)-1]) + `],"ns":5}`, false},
	} {
		if ok, _ := pool.matches(tc.i, 0, []byte(tc.body)); ok != tc.ok {
			t.Errorf("matches(%s) = %v, want %v", tc.body, ok, tc.ok)
		}
	}
	// Outside the reload phase only the serving image's answer is right;
	// inside it either image's is.
	other, err := buildImage(gridGen(5), 4, nil, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	two, err := newReadPool([]oracle.Pair{{U: int32(u), V: int32(v)}}, []bool{false}, fl, other.flat)
	if err != nil {
		t.Fatal(err)
	}
	dB := other.flat.Query(u, v)
	if dB == d {
		t.Fatalf("images agree on (%d,%d); the case needs different answers", u, v)
	}
	bodyB := []byte(`{"u":0,"v":24,"dist":` + strconv.FormatFloat(dB, 'g', -1, 64) + `,"ns":5}`)
	for _, tc := range []struct {
		img int
		ok  bool
	}{{0, false}, {1, true}, {anyImage, true}} {
		if ok, _ := two.matchesImage(0, tc.img, bodyB); ok != tc.ok {
			t.Errorf("image B's answer against image %d: matches = %v, want %v", tc.img, ok, tc.ok)
		}
	}
	// The load generator's goroutines check every reply; an allocation
	// here would draft them into garbage collection work.
	body := []byte(`{"u":0,"v":24,"dist":` + dist + `,"len":1,"path":[` + walk(path) + `],"ns":5}`)
	if n := testing.AllocsPerRun(100, func() { pool.matches(1, 0, body) }); n != 0 {
		t.Errorf("matches allocates %v times per reply", n)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "phase", Layer: layerBench, Start: 0, End: 100, Parent: -1},
		{Name: "a", Layer: layerServe, Start: 10, End: 30, Parent: 0},
		{Name: "b", Layer: layerServe, Start: 20, End: 50, Parent: 0}, // overlaps a
		{Name: "c", Layer: layerQuery, Start: 80, End: 90, Parent: 0},
		{Name: "d", Layer: layerQuery, Start: 85, End: 88, Parent: 3},
	}
	got := selfTimes(spans)
	want := map[string]float64{layerBench: 50e-9, layerServe: 50e-9, layerQuery: 10e-9, layerBuild: 0, layerLoad: 0}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-15 {
			t.Errorf("self time of %s = %v, want %v", l, got[l], w)
		}
	}
}

// TestClientChunkedAndClose covers the reply shapes the serving endpoints
// rarely send: a chunked body and a connection the server closes.
func TestClientChunkedAndClose(t *testing.T) {
	big := strings.Repeat("x", 10000)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/close" {
			w.Header().Set("Connection", "close")
		}
		for range 5 {
			_, _ = w.Write([]byte(big[:2000]))
			w.(http.Flusher).Flush()
		}
	}))
	defer ts.Close()
	c := newClient(strings.TrimPrefix(ts.URL, "http://"))
	defer c.close()
	for _, target := range []string{"/chunked", "/close", "/chunked"} {
		status, body, err := c.get(target)
		if err != nil || status != http.StatusOK || string(body) != big {
			t.Fatalf("GET %s: status %d, %d bytes, %v", target, status, len(body), err)
		}
	}
	if _, _, err := newClient("127.0.0.1:1").get("/"); err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
}
