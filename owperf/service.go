package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"optiwise/internal/cluster"
	"optiwise/internal/serve"
)

const (
	// serviceScale sizes the pool programs: small, so the service's own
	// layers (queue, cache, wire, journal, render) are visible next to
	// the simulation.
	serviceScale = 0.02
	// serviceGoldens is the golden-table prefix of the pool programs.
	serviceGoldens = "service"
	// roundJobs is how many consecutive completed jobs make one round.
	roundJobs = 16
	// clients is the number of closed-loop clients (at most nproc = 2).
	clients = 2
	// streamWindow is the stream window of streamed submissions, in
	// simulated cycles: a pool program spans tens of windows, each
	// checkpointed by the durable server.
	streamWindow = 8192
	// jobTimeout bounds one client operation end to end.
	jobTimeout = 60 * time.Second
	// cacheBytes and maxJobs cap each server's result cache and job
	// table (both retain results), so that memory plateaus early in a
	// run. With the defaults (256 MiB, 4096 jobs) the heap grows with
	// every job completed and peak RSS would rise with throughput.
	cacheBytes = 64 << 20
	maxJobs    = 256
	// recentKeys is how far back a repeat reaches: repeats draw from the
	// most recent first-time keys, which the capped cache still holds.
	recentKeys = 128
)

// servicePool is the fixed program pool of the service workloads: every
// suite program except mcf and deepsjeng, whose multi-megabyte
// working-set initialization costs seconds at any scale and would turn
// the pool into two job sizes.
var servicePool = []string{
	"500.perlbench", "502.gcc", "520.omnetpp", "523.xalancbmk", "525.x264",
	"541.leela", "548.exchange2", "557.xz", "503.bwaves", "507.cactuBSSN",
	"508.namd", "510.parest", "511.povray", "519.lbm", "521.wrf",
	"526.blender", "527.cam4", "538.imagick", "544.nab", "549.fotonik3d",
	"554.roms",
}

// service is a workload that drives an in-process profiling service
// over loopback HTTP with closed-loop clients.
type service struct {
	cluster bool
	// firstShare is the share of submissions that are first-time keys;
	// the rest repeat a key submitted earlier in the run.
	firstShare float64
	// streamShare is the share of first-time keys that are streamed.
	streamShare float64
}

var services = map[string]service{
	"serve-durable": {firstShare: 0.6, streamShare: 0.25},
	"cluster2":      {cluster: true, firstShare: 0.2},
}

// submission is one drawn key: a pool program and a rand_seed. The
// suite programs never call SysRand, so every rand_seed of a program
// yields the program's pinned profile while naming a distinct cache
// key.
type submission struct {
	program  int
	randSeed uint64
	stream   bool
	first    bool
}

// keyStream draws the seeded submission sequence shared by the clients.
// The mix is stratified so that the seed changes the order of
// submissions, not their make-up: every 10 submissions hold exactly
// firstShare×10 first-time keys, every 4 first-time keys exactly
// streamShare×4 streamed ones, and first-time keys cycle through the
// whole pool before any program repeats.
type keyStream struct {
	mu       sync.Mutex
	rng      *rand.Rand
	first    *deck
	stream   *deck
	program  *deck
	nextSeed []uint64
	issued   []submission
}

func newKeyStream(seed int64, s service) *keyStream {
	rng := rand.New(rand.NewSource(seed))
	return &keyStream{
		rng:      rng,
		first:    newDeck(rng, bits(10, s.firstShare)),
		stream:   newDeck(rng, bits(4, s.streamShare)),
		program:  newDeck(rng, iota(len(servicePool))),
		nextSeed: make([]uint64, len(servicePool)),
	}
}

func (k *keyStream) next() submission {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.first.draw() == 1 || len(k.issued) == 0 {
		p := k.program.draw()
		k.nextSeed[p]++
		s := submission{program: p, randSeed: k.nextSeed[p], first: true, stream: k.stream.draw() == 1}
		k.issued = append(k.issued, s)
		return s
	}
	recent := k.issued[max(0, len(k.issued)-recentKeys):]
	s := recent[k.rng.Intn(len(recent))]
	s.first, s.stream = false, false
	return s
}

// deck deals its cards in a seeded random order, reshuffling once all
// have been dealt.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(rng *rand.Rand, cards []int) *deck {
	return &deck{rng: rng, cards: cards, next: len(cards)}
}

func (d *deck) draw() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// bits returns n cards, round(share×n) of them 1.
func bits(n int, share float64) []int {
	out := make([]int, n)
	for i := 0; i < int(share*float64(n)+0.5); i++ {
		out[i] = 1
	}
	return out
}

func iota(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// deployment is a booted service: one durable server, or two in-memory
// cluster nodes, each behind a loopback HTTP listener.
type deployment struct {
	servers   []*serve.Server
	nodes     []*cluster.Node
	https     []*http.Server
	served    sync.WaitGroup
	bases     []string
	selves    []string
	dataDir   string
	convergeS float64
}

func (s service) boot() (*deployment, error) {
	d := &deployment{}
	n := 1
	if s.cluster {
		n = 2
	}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
		d.selves = append(d.selves, ln.Addr().String())
		d.bases = append(d.bases, "http://"+ln.Addr().String())
	}
	handlers := make([]http.Handler, n)
	if s.cluster {
		for i := range lns {
			srv := serve.New(serve.Config{Workers: 1, CacheBytes: cacheBytes, MaxJobs: maxJobs})
			node, err := cluster.New(cluster.Config{
				Self:          d.selves[i],
				Peers:         []string{d.selves[1-i]},
				ProbeInterval: 200 * time.Millisecond,
			}, srv)
			if err != nil {
				closeListeners(lns)
				d.close()
				return nil, fmt.Errorf("cluster node: %w", err)
			}
			d.servers = append(d.servers, srv)
			d.nodes = append(d.nodes, node)
			handlers[i] = node.Handler()
		}
	} else {
		dir, err := os.MkdirTemp("", "owperf-data-")
		if err != nil {
			closeListeners(lns)
			return nil, err
		}
		d.dataDir = dir
		srv, err := serve.NewDurable(durableConfig(dir))
		if err != nil {
			closeListeners(lns)
			d.close()
			return nil, fmt.Errorf("durable server: %w", err)
		}
		d.servers = append(d.servers, srv)
		handlers[0] = srv.Handler()
	}
	for i, ln := range lns {
		hs := &http.Server{Handler: handlers[i]}
		d.https = append(d.https, hs)
		d.served.Add(1)
		go func() {
			defer d.served.Done()
			hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
		}()
	}
	for _, srv := range d.servers {
		srv.Start()
	}
	start := time.Now()
	for _, node := range d.nodes {
		node.Start()
	}
	for _, node := range d.nodes {
		for node.Ring().Size() < len(d.nodes) {
			if time.Since(start) > 30*time.Second {
				d.close()
				return nil, errors.New("cluster ring did not converge within 30s")
			}
			time.Sleep(time.Millisecond)
		}
	}
	d.convergeS = time.Since(start).Seconds()
	return d, nil
}

func durableConfig(dir string) serve.Config {
	return serve.Config{Workers: clients, DataDir: dir, CacheBytes: cacheBytes, MaxJobs: maxJobs}
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// stop shuts down the HTTP listeners, cluster loops and servers, and
// waits for every goroutine they started; the data dir is kept.
func (d *deployment) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, hs := range d.https {
		hs.Shutdown(ctx) //nolint:errcheck // best-effort on the way out
	}
	d.served.Wait()
	d.https = nil
	for _, node := range d.nodes {
		node.Shutdown()
	}
	d.nodes = nil
	for _, srv := range d.servers {
		srv.Shutdown(ctx) //nolint:errcheck // best-effort on the way out
	}
	d.servers = nil
}

// close stops the deployment and removes its data dir.
func (d *deployment) close() {
	d.stop()
	if d.dataDir != "" {
		os.RemoveAll(d.dataDir)
	}
}

// stats sums the servers' operational counters.
func (d *deployment) stats() (st serve.Stats, cs serve.ClusterStats) {
	for _, srv := range d.servers {
		s := srv.Stats()
		st.Retries += s.Retries
		st.WindowsCheckpointed += s.WindowsCheckpointed
		if s.Cluster != nil {
			cs.Forwarded += s.Cluster.Forwarded
			cs.PeerFetchHits += s.Cluster.PeerFetchHits
		}
	}
	return st, cs
}

// jobRecord is one completed client operation.
type jobRecord struct {
	sub       submission
	latency   float64 // seconds, POST through report digest check
	reportS   float64 // seconds in GET report
	done      time.Time
	status    serve.JobStatus
	forwarded bool
}

// executed reports whether the job ran a simulation of its own.
func (j jobRecord) executed() bool {
	return !j.status.Cached && !j.status.Coalesced && !j.status.PeerFetched
}

// svcClient submits jobs and fetches their reports over loopback.
type svcClient struct {
	http    *http.Client
	sources []string // pool program sources, by pool index
}

func (c *svcClient) do(ctx context.Context, method, url string, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp, b, &statusError{Op: method + " " + url, Code: resp.StatusCode, Body: string(bytes.TrimSpace(b))}
	}
	return resp, b, nil
}

// job is the timed service operation: POST /v1/jobs with wait:true,
// then GET the JSON report and check its digest against the golden.
func (c *svcClient) job(base, self string, sub submission) (jobRecord, error) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	rec := jobRecord{sub: sub}
	name := servicePool[sub.program]
	opts := map[string]any{"rand_seed": sub.randSeed}
	if sub.stream {
		opts["stream_window"] = streamWindow
	}
	body, err := json.Marshal(map[string]any{
		"module": name, "source": c.sources[sub.program], "wait": true, "options": opts,
	})
	if err != nil {
		return rec, err
	}
	start := time.Now()
	resp, b, err := c.do(ctx, http.MethodPost, base+"/v1/jobs", body)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(b, &rec.status); err != nil {
		return rec, fmt.Errorf("decode job status: %w", err)
	}
	if rec.status.State != serve.StateDone {
		return rec, fmt.Errorf("job %s: state %s: %s", rec.status.ID, rec.status.State, rec.status.Error)
	}
	if node := resp.Header.Get("X-Optiwise-Node"); node != "" && node != self {
		rec.forwarded = true
	}
	reportStart := time.Now()
	_, report, err := c.do(ctx, http.MethodGet, base+"/v1/jobs/"+rec.status.ID+"/report?kind=json", nil)
	if err != nil {
		return rec, err
	}
	rec.reportS = time.Since(reportStart).Seconds()
	err = checkJSON(goldenKey(serviceGoldens, name), report)
	rec.done = time.Now()
	rec.latency = rec.done.Sub(start).Seconds()
	return rec, err
}

// drive runs the closed loop: each client submits its next drawn key as
// soon as its previous job completes, alternating frontends, until
// budget has elapsed. The measured time runs until the last job started
// within budget has finished.
func (c *svcClient) drive(d *deployment, ks *keyStream, budget time.Duration, tl *tally, rec *recorder) *serviceRun {
	var (
		mu   sync.Mutex
		jobs []jobRecord
		wg   sync.WaitGroup
	)
	start := time.Now()
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; time.Since(start) < budget; i++ {
				fe := (cl + i) % len(d.bases)
				sub := ks.next()
				jobStart := time.Now()
				j, err := c.job(d.bases[fe], d.selves[fe], sub)
				if !tl.record(err) {
					continue
				}
				traceJob(rec, cl, jobStart, j)
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].done.Before(jobs[b].done) })
	r := &serviceRun{jobs: jobs, measuredS: time.Since(start).Seconds()}
	prev := start
	for i := roundJobs - 1; i < len(jobs); i += roundJobs {
		r.rounds = append(r.rounds, jobs[i].done.Sub(prev).Seconds())
		prev = jobs[i].done
	}
	for _, j := range jobs {
		if j.executed() {
			r.simInsts += float64(goldens[goldenKey(serviceGoldens, servicePool[j.sub.program])].SimInsts)
		}
	}
	return r
}

// traceJob records a completed job's client span with its report fetch
// and, for executed jobs, the server's queue and execution intervals as
// reported in the job status.
func traceJob(rec *recorder, lane int, start time.Time, j jobRecord) {
	if rec == nil {
		return
	}
	args := map[string]any{"program": servicePool[j.sub.program], "rand_seed": j.sub.randSeed,
		"cached": j.status.Cached, "coalesced": j.status.Coalesced, "forwarded": j.forwarded}
	root := rec.add("serve.job", -1, lane, start, j.done, args)
	reportStart := j.done.Add(-time.Duration(j.reportS * 1e9))
	rec.add("serve.submit", root, lane, start, reportStart, nil)
	rec.add("serve.report", root, lane, reportStart, j.done, nil)
	if st := j.status; st.Started != nil && st.Finished != nil && j.executed() {
		rec.add("serve.queue_wait", root, lane, st.Submitted, *st.Started, nil)
		rec.add("serve.exec", root, lane, *st.Started, *st.Finished, nil)
	}
}

// serviceRun holds the end-to-end measurements of one closed-loop phase.
type serviceRun struct {
	jobs      []jobRecord // completed, in completion order
	measuredS float64
	rounds    []float64 // seconds per roundJobs completed jobs
	simInsts  float64   // sampling-run instructions of executed jobs
}

// warmKeys is the set-up's warm-up traffic: four pool programs, with
// rand_seeds the measured stream never draws.
func warmKeys() []submission {
	var out []submission
	for i, p := range []int{0, 6, 12, 18} {
		out = append(out, submission{program: p, randSeed: 1<<40 + uint64(i), first: true})
	}
	return out
}

// setup boots the deployment and warms it up: every warm key once
// (a simulation each) and again (a cache hit each), through alternating
// frontends.
func (s service) setup(c *svcClient, tl *tally) (*deployment, error) {
	d, err := s.boot()
	if err != nil {
		return nil, err
	}
	for pass := 0; pass < 2; pass++ {
		for i, sub := range warmKeys() {
			fe := (i + pass) % len(d.bases)
			if _, err := c.job(d.bases[fe], d.selves[fe], sub); !tl.record(err) {
				d.close()
				return nil, err
			}
		}
	}
	return d, nil
}

// dirMB is the total size of the files under dir.
func dirMB(dir string) float64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error { //nolint:errcheck // best-effort size
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total) / (1 << 20)
}

// replay reopens a stopped durable deployment's data dir with
// serve.NewDurable and returns the seconds it took.
func replay(dir string) (float64, error) {
	start := time.Now()
	srv, err := serve.NewDurable(durableConfig(dir))
	if err != nil {
		return 0, fmt.Errorf("replay: %w", err)
	}
	took := time.Since(start).Seconds()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return took, srv.Shutdown(ctx)
}
