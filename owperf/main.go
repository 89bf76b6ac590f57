// Command owperf is the repository's same-host benchmark: four
// workloads that profile suite programs through the library, a durable
// profiling service, and a two-node cluster, reporting end-to-end host
// time with tracing off and a per-layer host-time ledger in a separate
// traced run. Every timed operation is checked against a pinned golden
// digest. See README.md and ../BENCHMARK.json.
//
// Usage (from the repository root):
//
//	bash owperf/run.sh --workload membound-full --seed 1 --seconds 20 --trace 0
//	bash owperf/run.sh --pin owperf/goldens.json   # re-pin the goldens
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"optiwise"
)

// setupReps is how many times a run sets up; setup_s is their median
// and the last set-up is the one measured.
const setupReps = 5

// endToEnd lists the metrics of an untraced run, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"round_s", "s"},
	{"sim_minst_per_s", "Minst/s"},
	{"job_p50_ms", "ms"},
	{"job_tail_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of a traced run, with their units. A layer
// that is not on a workload's path reports 0.
var perLayer = []struct{ name, unit string }{
	{"asm.assemble_ms", "ms"},
	{"sampler.busy_ms", "ms"},
	{"sampler.mcyc_per_s", "Mcyc/s"},
	{"sampler.minst_per_s", "Minst/s"},
	{"sampler.alloc_mb", "MB"},
	{"sampler.allocs", "count"},
	{"sampler.sim_cycles", "count"},
	{"sampler.sim_insts", "count"},
	{"sampler.samples", "count"},
	{"dbi.busy_ms", "ms"},
	{"dbi.minst_per_s", "Minst/s"},
	{"dbi.alloc_mb", "MB"},
	{"dbi.cold_share", "ratio"},
	{"core.select_ms", "ms"},
	{"core.hot_ranges", "count"},
	{"core.combine_ms", "ms"},
	{"cfg.build_ms", "ms"},
	{"dom.compute_ms", "ms"},
	{"loops.find_ms", "ms"},
	{"report.render_ms", "ms"},
	{"optiwise.overlap_saved_ms", "ms"},
	{"optiwise.seq_round_s", "s"},
	{"optiwise.seq_overlap_saved_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.exec_ms", "ms"},
	{"serve.hit_share", "ratio"},
	{"serve.client_overhead_ms", "ms"},
	{"serve.report_ms", "ms"},
	{"serve.retries", "count"},
	{"serve.rejected", "count"},
	{"durable.windows_checkpointed", "count"},
	{"durable.dir_mb", "MB"},
	{"durable.replay_s", "s"},
	{"cluster.forward_share", "ratio"},
	{"cluster.peer_fetch_share", "ratio"},
	{"cluster.forward_extra_ms", "ms"},
	{"cluster.converge_s", "s"},
	{"runtime.heap_peak_mb", "MB"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.untraced_round_s", "s"},
	{"trace.traced_round_s", "s"},
	{"trace.overhead_ms", "ms"},
	{"owperf.error_rate", "ratio"},
}

type config struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool
	out      string
}

func main() {
	var cfg config
	var seconds, trace int
	var pinPath string
	flag.StringVar(&cfg.workload, "workload", "", "workload: membound-full, highipc-tiered, serve-durable or cluster2")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: picks the program order or the key stream")
	flag.IntVar(&seconds, "seconds", 20, "seconds to measure")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end run")
	flag.StringVar(&cfg.out, "out", ".", "directory for the Chrome trace of a traced run")
	flag.StringVar(&pinPath, "pin", "", "recompute every golden from the current code into this file and exit")
	flag.Parse()
	if pinPath != "" {
		if err := pin(pinPath); err != nil {
			fmt.Fprintln(os.Stderr, "owperf: pin:", err)
			os.Exit(1)
		}
		return
	}
	cfg.budget = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "owperf:", err)
		if res == nil {
			os.Exit(2)
		}
	}
	printResult(res, cfg.trace)
	if !res.Correct {
		os.Exit(1)
	}
}

// run dispatches to the workload and assembles the result.
func run(cfg config) (*result, error) {
	if cfg.budget <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	w, isPipeline := pipelines[cfg.workload]
	s, isService := services[cfg.workload]
	if !isPipeline && !isService {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	var (
		tl  tally
		m   map[string]float64
		err error
	)
	mon := startHeapMonitor()
	if isPipeline {
		m, err = runPipeline(cfg, w, &tl)
	} else {
		m, err = runService(cfg, s, &tl)
	}
	heapPeak := mon.stop()
	if err == nil && !cfg.trace {
		m["peak_rss_mb"], err = peakRSSMB()
	}
	if _, failed, _ := tl.counts(); err != nil && failed == 0 {
		tl.record(err) // an aborted run never reads as clean
	}
	attempted, failed, first := tl.counts()
	if err == nil && first != nil {
		err = first
	}
	res := &result{Correct: failed == 0 && err == nil, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if cfg.trace {
		m["runtime.heap_peak_mb"] = heapPeak
		m["owperf.error_rate"] = tl.errorRate()
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{Value: m[d.name], Unit: d.unit}
		}
	} else {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{Value: m[d.name], Unit: d.unit}
		}
	}
	return res, err
}

// printResult prints every metric by name and unit, then the JSON
// result as the last line of standard output.
func printResult(res *result, traced bool) {
	list := endToEnd
	if traced {
		list = perLayer
	}
	for _, d := range list {
		fmt.Printf("%-30s %16.6f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Printf("%-30s %16d attempted, %d failed (error rate %.6f)\n", "operations",
		res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "owperf: encode result:", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
}

// timedSetups runs setup setupReps times, tearing down all but the last,
// and returns the last set-up and the median set-up seconds.
func timedSetups[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupReps-1 {
			teardown(v)
		}
		last = v
	}
	return last, median(times), nil
}

func runPipeline(cfg config, w pipeline, tl *tally) (map[string]float64, error) {
	m := map[string]float64{}
	progs, setupS, err := timedSetups(func() ([]*prepared, error) { return w.setup(cfg.workload, tl) }, func([]*prepared) {})
	if err != nil {
		return m, err
	}
	m["setup_s"] = setupS
	opts := w.options()
	if !cfg.trace {
		run, err := w.runRounds(cfg.workload, progs, opts, cfg.seed, cfg.budget, tl)
		if err != nil {
			return m, err
		}
		m["round_s"] = median(run.rounds)
		m["sim_minst_per_s"] = ratio(run.simInsts/1e6, sum(run.rounds))
		m["job_p50_ms"] = median(run.rounds) * 1e3
		tailV, pct, n := tail(run.rounds)
		m["job_tail_ms"] = tailV * 1e3
		m["jobs_per_s"] = ratio(float64(len(run.rounds)), sum(run.rounds))
		fmt.Printf("# job = one round over %d programs; tail is p%.1f of %d rounds\n", len(progs), pct, n)
		for _, p := range progs {
			fmt.Printf("# %-16s median Profile wall %.4f s\n", p.name, median(run.perProg[p.name]))
		}
		return m, nil
	}

	pause0 := gcPauseNs()
	// The untraced half. With full instrumentation it alternates default
	// rounds with rounds of the planted Options.Sequential arm, so the
	// pass-overlap decision compares pairs measured side by side.
	untraced := &pipelineRun{perProg: map[string][]float64{}}
	seq := &pipelineRun{perProg: map[string][]float64{}}
	seqOpts := opts
	seqOpts.Sequential = true
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < cfg.budget/2; r++ {
		arms := []struct {
			opts optiwise.Options
			into *pipelineRun
		}{{opts, untraced}, {seqOpts, seq}}
		if w.tiered {
			arms = arms[:1] // tiered passes are sequential already
		} else if (cfg.seed+int64(r))%2 != 0 {
			arms[0], arms[1] = arms[1], arms[0] // alternate which arm runs first
		}
		for _, arm := range arms {
			one, err := w.runRounds(cfg.workload, progs, arm.opts, cfg.seed+int64(r), 0, tl)
			if err != nil {
				return m, err
			}
			arm.into.merge(one)
		}
	}
	rec := newRecorder()
	var rounds []map[string]float64
	var tracedRounds []float64
	start = time.Now()
	for r := 0; r == 0 || time.Since(start) < cfg.budget/2; r++ {
		roundStart := time.Now()
		led, err := layerRound(cfg.workload, rotated(progs, int(cfg.seed)+r), opts, rec, 0, tl)
		if err != nil {
			return m, err
		}
		tracedRounds = append(tracedRounds, time.Since(roundStart).Seconds())
		rounds = append(rounds, led)
	}
	for k, v := range medianLedger(rounds) {
		m[k] = v
	}
	busyMS := m["sampler.busy_ms"] + m["dbi.busy_ms"]
	m["optiwise.overlap_saved_ms"] = busyMS - profileWallMS(untraced)
	if !w.tiered {
		m["optiwise.seq_round_s"] = median(seq.rounds)
		m["optiwise.seq_overlap_saved_ms"] = busyMS - profileWallMS(seq)
	}
	m["runtime.gc_pause_ms"] = float64(gcPauseNs()-pause0) / 1e6
	m["trace.untraced_round_s"] = median(untraced.rounds)
	m["trace.traced_round_s"] = median(tracedRounds)
	m["trace.overhead_ms"] = (median(tracedRounds) - median(untraced.rounds)) * 1e3
	return m, writeTrace(cfg, rec)
}

// profileWallMS is the median Profile wall time per program, summed
// over the round's programs.
func profileWallMS(run *pipelineRun) float64 {
	total := 0.0
	for _, v := range run.perProg {
		total += median(v)
	}
	return total * 1e3
}

func runService(cfg config, s service, tl *tally) (map[string]float64, error) {
	m := map[string]float64{}
	progs, err := prepare(servicePool, serviceScale)
	if err != nil {
		return m, err
	}
	c := &svcClient{http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}}
	defer c.http.CloseIdleConnections()
	for _, p := range progs {
		c.sources = append(c.sources, p.source)
	}
	d, setupS, err := timedSetups(func() (*deployment, error) { return s.setup(c, tl) }, (*deployment).close)
	if err != nil {
		return m, err
	}
	defer d.close()
	m["setup_s"] = setupS
	ks := newKeyStream(cfg.seed, s)
	if !cfg.trace {
		run := c.drive(d, ks, cfg.budget, tl, nil)
		var lat []float64
		for _, j := range run.jobs {
			lat = append(lat, j.latency)
		}
		m["round_s"] = median(run.rounds)
		m["sim_minst_per_s"] = ratio(run.simInsts/1e6, run.measuredS)
		m["job_p50_ms"] = median(lat) * 1e3
		tailV, pct, n := tail(lat)
		m["job_tail_ms"] = tailV * 1e3
		m["jobs_per_s"] = ratio(float64(len(run.jobs)), run.measuredS)
		fmt.Printf("# job_tail_ms is p%.2f of %d jobs; a round is %d completed jobs\n", pct, n, roundJobs)
		return m, nil
	}

	pause0 := gcPauseNs()
	st0, cs0 := d.stats()
	untraced := c.drive(d, ks, cfg.budget/2, tl, nil)
	rec := newRecorder()
	traced := c.drive(d, ks, cfg.budget/2, tl, rec)
	st1, cs1 := d.stats()
	m["runtime.gc_pause_ms"] = float64(gcPauseNs()-pause0) / 1e6
	m["trace.untraced_round_s"] = median(untraced.rounds)
	m["trace.traced_round_s"] = median(traced.rounds)
	m["trace.overhead_ms"] = (median(traced.rounds) - median(untraced.rounds)) * 1e3

	jobs := append(append([]jobRecord(nil), untraced.jobs...), traced.jobs...)
	var queue, exec, overhead, report, fwdLat, localLat []float64
	hits := 0
	for _, j := range jobs {
		st := j.status
		report = append(report, j.reportS*1e3)
		if st.Finished != nil {
			overhead = append(overhead, (j.latency-st.Finished.Sub(st.Submitted).Seconds())*1e3)
		}
		if j.executed() && st.Started != nil && st.Finished != nil {
			queue = append(queue, st.Started.Sub(st.Submitted).Seconds()*1e3)
			exec = append(exec, st.Finished.Sub(*st.Started).Seconds()*1e3)
		} else {
			hits++
		}
		if j.forwarded {
			fwdLat = append(fwdLat, j.latency*1e3)
		} else {
			localLat = append(localLat, j.latency*1e3)
		}
	}
	n := float64(len(jobs))
	m["serve.queue_wait_ms"] = median(queue)
	m["serve.exec_ms"] = median(exec)
	m["serve.hit_share"] = ratio(float64(hits), n)
	m["serve.client_overhead_ms"] = median(overhead)
	m["serve.report_ms"] = median(report)
	m["serve.retries"] = float64(st1.Retries - st0.Retries)
	m["serve.rejected"] = float64(tl.rejections())
	if s.cluster {
		m["cluster.forward_share"] = ratio(float64(cs1.Forwarded-cs0.Forwarded), n)
		m["cluster.peer_fetch_share"] = ratio(float64(cs1.PeerFetchHits-cs0.PeerFetchHits), n)
		if len(fwdLat) > 0 && len(localLat) > 0 {
			m["cluster.forward_extra_ms"] = median(fwdLat) - median(localLat)
		}
		m["cluster.converge_s"] = d.convergeS
	} else {
		m["durable.windows_checkpointed"] = float64(st1.WindowsCheckpointed - st0.WindowsCheckpointed)
		d.stop()
		m["durable.dir_mb"] = dirMB(d.dataDir)
		if m["durable.replay_s"], err = replay(d.dataDir); err != nil {
			return m, err
		}
	}

	// The per-layer host time of the pool's programs, called layer by
	// layer as in the pipeline workloads, one program each.
	opts := optiwise.Options{Machine: optiwise.XeonW2195(), RandSeed: 1}
	led, err := layerRound(serviceGoldens, progs, opts, rec, clients, tl)
	if err != nil {
		return m, err
	}
	for k, v := range led {
		m[k] = v
	}
	wall := &pipelineRun{perProg: map[string][]float64{}}
	for _, p := range progs {
		d, err := profileOne(goldenKey(serviceGoldens, p.name), p, opts)
		if !tl.record(err) {
			return m, err
		}
		wall.perProg[p.name] = []float64{d.Seconds()}
	}
	m["optiwise.overlap_saved_ms"] = m["sampler.busy_ms"] + m["dbi.busy_ms"] - profileWallMS(wall)
	return m, writeTrace(cfg, rec)
}

func writeTrace(cfg config, rec *recorder) error {
	path := filepath.Join(cfg.out, fmt.Sprintf("owperf-trace-%s-%d.json", cfg.workload, cfg.seed))
	if err := rec.writeChrome(path); err != nil {
		return err
	}
	fmt.Printf("# chrome trace: %s\n", path)
	return nil
}

func gcPauseNs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.PauseTotalNs
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak rss: no VmHWM line in /proc/self/status")
}

// heapMonitor samples live heap bytes every 10ms and keeps the peak.
type heapMonitor struct {
	stopC chan struct{}
	wg    sync.WaitGroup
	peak  uint64
}

func startHeapMonitor() *heapMonitor {
	h := &heapMonitor{stopC: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stopC:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MB.
func (h *heapMonitor) stop() float64 {
	close(h.stopC)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}
