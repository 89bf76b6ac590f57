package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"optiwise"
)

// benchmarkFile mirrors ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the grammar", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	unit := func(u string) {
		t.Helper()
		if !unitRE.MatchString(u) {
			t.Errorf("unit %q breaks the grammar", u)
		}
	}
	better := func(n, v string) {
		t.Helper()
		if v != "lower" && v != "higher" {
			t.Errorf("%s: better = %q", n, v)
		}
	}

	workloads := map[string]bool{}
	for _, w := range b.Workloads {
		name(w.Name)
		workloads[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		_, p := pipelines[w.Name]
		_, s := services[w.Name]
		if !p && !s {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(workloads) != len(pipelines)+len(services) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark implements %d", len(workloads), len(pipelines)+len(services))
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end has %d metrics, the benchmark reports %d", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		name(m.Name)
		unit(m.Unit)
		better(m.Name, m.Better)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, benchmark reports %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != maxBound) {
			t.Errorf("setup_s must be seconds, lower-is-better, with the largest bound; got %+v", m)
		}
	}

	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d metrics, the benchmark reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		unit(m.Unit)
		better(m.Name, m.Better)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, benchmark reports %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestNameGrammar(t *testing.T) {
	for _, ok := range []string{"setup_s", "sampler.mcyc_per_s", "cluster2", "9lives", "a-b.c_d"} {
		if !nameRE.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "a/b", string(long)} {
		if nameRE.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, ok := range []string{"ms", "s", "1/s", "count", "Minst/s", "%"} {
		if !unitRE.MatchString(ok) {
			t.Errorf("unit %q rejected", ok)
		}
	}
	if unitRE.MatchString("seventeen-chars-x") || unitRE.MatchString("") {
		t.Error("unit grammar accepts an empty or 17-character unit")
	}
}

func TestTailPercentileWithCount(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n         int
		value     float64
		pct       float64
		wantCount int
	}{
		{0, 0, 0, 0},
		{3, 3, 100, 3},      // too few samples: the maximum
		{99, 99, 100, 99},   // p90 would have 9 beyond it
		{100, 90, 90, 100},  // p90 has exactly ten beyond it
		{999, 900, 90, 999}, // p99 would have 9 beyond it
		{1000, 990, 99, 1000},
		{3400, 3366, 99, 3400},
		{10000, 9990, 99.9, 10000},
	} {
		v, p, n := tail(seq(c.n))
		if v != c.value || p != c.pct || n != c.wantCount {
			t.Errorf("tail of %d samples = (%g, p%g, %d), want (%g, p%g, %d)", c.n, v, p, n, c.value, c.pct, c.wantCount)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if c.n > 0 && c.pct < 100 && beyond < 10 {
			t.Errorf("%d samples: %d beyond the tail, want at least 10", c.n, beyond)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestFailureAccounting(t *testing.T) {
	var tl tally
	tl.record(nil)
	tl.record(&statusError{Op: "POST /v1/jobs", Code: http.StatusTooManyRequests})
	tl.record(&statusError{Op: "POST /v1/jobs", Code: http.StatusInternalServerError})
	tl.record(&mismatchError{Key: "k", Field: "json_sha256", Got: "a", Want: "b"})
	tl.record(errors.New("dial tcp: connection refused"))
	a, f, first := tl.counts()
	if a != 5 || f != 4 {
		t.Fatalf("attempted %d failed %d, want 5 and 4", a, f)
	}
	if tl.rejections() != 1 {
		t.Errorf("rejections = %d, want 1 (the 429)", tl.rejections())
	}
	if got := tl.errorRate(); got != 0.8 {
		t.Errorf("error rate = %g, want 0.8", got)
	}
	var se *statusError
	if !errors.As(first, &se) || se.Code != http.StatusTooManyRequests {
		t.Errorf("first failure = %v, want the 429", first)
	}
}

// A 429 from the service is a failed operation, not a slow success.
func TestServiceRejectionCountsAsFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "job queue is full", http.StatusTooManyRequests)
	}))
	defer srv.Close()
	c := &svcClient{http: srv.Client(), sources: make([]string, len(servicePool))}
	var tl tally
	_, err := c.job(srv.URL, "", submission{program: 0, randSeed: 1})
	if tl.record(err) {
		t.Fatal("a 429 response counted as success")
	}
	if tl.rejections() != 1 || tl.errorRate() != 1 {
		t.Errorf("rejections %d, error rate %g; want 1 and 1", tl.rejections(), tl.errorRate())
	}
}

func TestGoldenMismatchDetection(t *testing.T) {
	const prog = "548.exchange2"
	key := goldenKey(serviceGoldens, prog)
	progs, err := prepare([]string{prog}, serviceScale)
	if err != nil {
		t.Fatal(err)
	}
	res, err := optiwise.Profile(progs[0].prog, optiwise.Options{RandSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r, err := render(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(key, res, r); err != nil {
		t.Fatalf("pinned result does not match: %v", err)
	}
	if err := checkJSON(key, r.JSON); err != nil {
		t.Fatalf("pinned export does not match: %v", err)
	}

	tampered := append([]byte(nil), r.JSON...)
	tampered[len(tampered)/2] ^= 1
	if err := checkJSON(key, tampered); !isMismatch(err) {
		t.Errorf("flipped export byte: err = %v, want a mismatch", err)
	}
	if err := checkResult(key, res, rendered{JSON: r.JSON, Report: append(r.Report, ' ')}); !isMismatch(err) {
		t.Errorf("changed text report: err = %v, want a mismatch", err)
	}
	g := goldens[key]
	if err := checkSimCounts(key, g.SimCycles+1, g.SimInsts, g.SimSamples); !isMismatch(err) {
		t.Errorf("one extra simulated cycle: err = %v, want a mismatch", err)
	}
	if err := checkSimCounts(key, g.SimCycles, g.SimInsts, g.SimSamples); err != nil {
		t.Errorf("pinned counts: %v", err)
	}
	if err := checkJSON("no-such-workload/"+prog, r.JSON); !isMismatch(err) {
		t.Errorf("unpinned key: err = %v, want a mismatch", err)
	}
}

func TestKeyStreamIsSeeded(t *testing.T) {
	draw := func(seed int64) []submission {
		ks := newKeyStream(seed, services["serve-durable"])
		out := make([]submission, 2000)
		for i := range out {
			out[i] = ks.next()
		}
		return out
	}
	a, b, c := draw(5), draw(5), draw(6)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 5 drew different keys at %d: %+v vs %+v", i, a[i], b[i])
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("seeds 5 and 6 drew the same stream")
	}
	issued := map[[2]uint64]bool{}
	var order [][2]uint64
	first, streamed := 0, 0
	for _, s := range a {
		k := [2]uint64{uint64(s.program), s.randSeed}
		if s.first {
			first++
			if issued[k] {
				t.Fatalf("first-time key %v drawn twice", k)
			}
			issued[k] = true
			if s.stream {
				streamed++
			}
		} else if !issued[k] {
			t.Fatalf("repeat of a key %v never issued", k)
		}
		if s.first {
			order = append(order, k)
		} else if recent := order[max(0, len(order)-recentKeys):]; !contains(recent, k) {
			t.Fatalf("repeat %v is not among the last %d first-time keys", k, recentKeys)
		}
	}
	// The mix is stratified: exact shares over whole blocks, give or
	// take the first submission, which is always a first-time key.
	if want := services["serve-durable"].firstShare * float64(len(a)); math.Abs(float64(first)-want) > 1 {
		t.Errorf("%d first-time keys in %d submissions, want %g", first, len(a), want)
	}
	if want := 0.25 * float64(first); math.Abs(float64(streamed)-want) > 1 {
		t.Errorf("%d of %d first-time keys streamed, want a quarter", streamed, first)
	}
}

func contains(keys [][2]uint64, k [2]uint64) bool {
	for _, x := range keys {
		if x == k {
			return true
		}
	}
	return false
}

// isMismatch reports whether err is a golden mismatch.
func isMismatch(err error) bool {
	var m *mismatchError
	return errors.As(err, &m)
}
