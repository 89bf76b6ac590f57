package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"sort"
	"time"

	"optiwise"
	"optiwise/internal/cfg"
	"optiwise/internal/core"
	"optiwise/internal/dom"
	"optiwise/internal/loops"
	"optiwise/internal/ooo"
	"optiwise/internal/program"
	"optiwise/internal/workloads"
)

// pipeline is a workload that profiles a fixed list of suite programs
// in-process, one at a time, by one caller.
type pipeline struct {
	programs []string
	scale    float64
	tiered   bool
	// warmup is profiled once during set-up, outside the timed rounds.
	warmup string
}

var pipelines = map[string]pipeline{
	"membound-full": {
		programs: []string{"505.mcf", "531.deepsjeng", "527.cam4", "521.wrf"},
		scale:    0.1,
		warmup:   "521.wrf",
	},
	"highipc-tiered": {
		programs: []string{"548.exchange2", "511.povray", "500.perlbench", "525.x264", "508.namd"},
		scale:    1.0,
		tiered:   true,
		warmup:   "548.exchange2",
	},
}

// options are the workload's profiling options. The machine is spelled
// out so that the layer-by-layer Analyze call records the same machine
// name Profile resolves by default.
func (w pipeline) options() optiwise.Options {
	return optiwise.Options{Machine: optiwise.XeonW2195(), Tiered: w.tiered}
}

// prepared is one generated and assembled suite program.
type prepared struct {
	name   string
	source string
	prog   *optiwise.Program
}

func prepare(names []string, scale float64) ([]*prepared, error) {
	specs := map[string]workloads.Spec{}
	for _, s := range workloads.Suite() {
		specs[s.Name] = s
	}
	out := make([]*prepared, 0, len(names))
	for _, n := range names {
		spec, ok := specs[n]
		if !ok {
			return nil, fmt.Errorf("unknown suite program %q", n)
		}
		src := workloads.Generate(spec.Scale(scale))
		prog, err := optiwise.Assemble(n, src)
		if err != nil {
			return nil, fmt.Errorf("assemble %s: %w", n, err)
		}
		out = append(out, &prepared{name: n, source: src, prog: prog})
	}
	return out, nil
}

// profileOne is the timed pipeline operation: Profile, render the JSON
// export and text report, and check both against the pinned golden. It
// returns the wall time of the Profile call alone.
func profileOne(key string, p *prepared, opts optiwise.Options) (time.Duration, error) {
	start := time.Now()
	res, err := optiwise.Profile(p.prog, opts)
	wall := time.Since(start)
	if err != nil {
		return wall, fmt.Errorf("%s: profile: %w", key, err)
	}
	r, err := render(res)
	if err == nil {
		err = checkResult(key, res, r)
	}
	return wall, err
}

// rotated returns progs starting at index k (mod len), so the seed
// picks the order in which each round visits the programs.
func rotated(progs []*prepared, k int) []*prepared {
	n := len(progs)
	out := make([]*prepared, 0, n)
	for i := range progs {
		out = append(out, progs[((k%n)+n+i)%n])
	}
	return out
}

// pipelineRun holds the measurements of one pipeline run.
type pipelineRun struct {
	rounds   []float64            // round wall seconds
	simInsts float64              // sampling-run instructions over all rounds
	perProg  map[string][]float64 // Profile wall seconds per program
}

func (run *pipelineRun) merge(o *pipelineRun) {
	run.rounds = append(run.rounds, o.rounds...)
	run.simInsts += o.simInsts
	for k, v := range o.perProg {
		run.perProg[k] = append(run.perProg[k], v...)
	}
}

// runRounds profiles every program once per round, in an order rotated
// by seed and round, until budget has elapsed (at least one round).
func (w pipeline) runRounds(workload string, progs []*prepared, opts optiwise.Options, seed int64, budget time.Duration, tl *tally) (*pipelineRun, error) {
	run := &pipelineRun{perProg: map[string][]float64{}}
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < budget; r++ {
		roundStart := time.Now()
		for _, p := range rotated(progs, int(seed)+r) {
			key := goldenKey(workload, p.name)
			d, err := profileOne(key, p, opts)
			if !tl.record(err) {
				return run, err
			}
			run.perProg[p.name] = append(run.perProg[p.name], d.Seconds())
			run.simInsts += float64(goldens[key].SimInsts)
		}
		run.rounds = append(run.rounds, time.Since(roundStart).Seconds())
	}
	return run, nil
}

// setup generates and assembles the programs and warms up with
// one profile of the workload's warm-up program.
func (w pipeline) setup(workload string, tl *tally) ([]*prepared, error) {
	progs, err := prepare(w.programs, w.scale)
	if err != nil {
		return nil, err
	}
	for _, p := range progs {
		if p.name == w.warmup {
			_, err := profileOne(goldenKey(workload, p.name), p, w.options())
			if !tl.record(err) {
				return nil, err
			}
		}
	}
	return progs, nil
}

// allocCounters reads the process's cumulative heap allocation bytes and
// objects.
func allocCounters() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// fnGraph adapts one function's CFG subgraph to the dominator and loop
// finders, entry block first.
type fnGraph struct {
	succs [][]int
	freq  map[[2]int]uint64
}

func (f *fnGraph) NumNodes() int                { return len(f.succs) }
func (f *fnGraph) Succs(n int) []int            { return f.succs[n] }
func (f *fnGraph) EdgeFreq(from, to int) uint64 { return f.freq[[2]int{from, to}] }

func functionGraph(g *cfg.Graph, fn program.Function) *fnGraph {
	sub := g.FunctionSubgraph(fn)
	sort.Slice(sub, func(i, j int) bool { return g.Blocks[sub[i]].Start < g.Blocks[sub[j]].Start })
	local := make(map[int]int, len(sub))
	for li, gi := range sub {
		local[gi] = li
	}
	fg := &fnGraph{succs: make([][]int, len(sub)), freq: map[[2]int]uint64{}}
	for li, gi := range sub {
		for _, e := range g.Blocks[gi].Succs {
			if tl, ok := local[e.To]; ok {
				fg.succs[li] = append(fg.succs[li], tl)
				fg.freq[[2]int{li, tl}] += e.Count
			}
		}
	}
	return fg
}

// layerRound profiles every program once by calling the layers one by
// one — assemble, sample, select (tiered), instrument, combine, the
// combine sub-stages cfg/dom/loops re-run on their own, render — with a
// span around each call. It returns the round's per-layer sums and
// checks that the layer-by-layer result matches Profile's pinned golden.
func layerRound(workload string, progs []*prepared, opts optiwise.Options, rec *recorder, lane int, tl *tally) (map[string]float64, error) {
	led := map[string]float64{}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	var dbiInsts, coldInsts float64
	round := rec.open("layer_round", -1, lane)
	for _, p := range progs {
		key := goldenKey(workload, p.name)
		parent := rec.open("program", round, lane)
		timed := func(name string, f func() error) error {
			start := time.Now()
			err := f()
			end := time.Now()
			rec.add(name, parent, lane, start, end, map[string]any{"program": p.name})
			led[name] += ms(end.Sub(start))
			return err
		}
		var (
			prog *optiwise.Program
			sp   *optiwise.SampleProfile
			ep   *optiwise.EdgeProfile
			res  *optiwise.Result
			g    *cfg.Graph
			r    rendered
		)
		err := timed("asm.assemble_ms", func() (err error) {
			prog, err = optiwise.Assemble(p.name, p.source)
			return err
		})
		if err == nil {
			var st ooo.Stats
			b0, o0 := allocCounters()
			err = timed("sampler.busy_ms", func() (err error) {
				sp, st, err = optiwise.SampleOnly(prog, opts)
				return err
			})
			b1, o1 := allocCounters()
			led["sampler.alloc_mb"] += float64(b1-b0) / (1 << 20)
			led["sampler.allocs"] += float64(o1 - o0)
			led["sampler.sim_cycles"] += float64(st.Cycles)
			led["sampler.sim_insts"] += float64(st.Instructions)
			led["sampler.samples"] += float64(st.Samples)
			if err == nil {
				err = checkSimCounts(key, st.Cycles, st.Instructions, st.Samples)
			}
		}
		if err == nil && opts.Tiered {
			err = timed("core.select_ms", func() error {
				threshold := opts.HotThreshold
				if threshold == 0 {
					threshold = optiwise.DefaultHotThreshold
				}
				led["core.hot_ranges"] += float64(len(core.DeriveSelection(prog.Raw(), sp, threshold).Ranges()))
				return nil
			})
		}
		if err == nil {
			b0, _ := allocCounters()
			err = timed("dbi.busy_ms", func() (err error) {
				if opts.Tiered {
					ep, err = optiwise.TieredInstrumentOnly(prog, sp, opts)
				} else {
					ep, err = optiwise.InstrumentOnly(prog, opts)
				}
				return err
			})
			b1, _ := allocCounters()
			led["dbi.alloc_mb"] += float64(b1-b0) / (1 << 20)
			if err == nil {
				dbiInsts += float64(ep.BaseInstructions)
				coldInsts += float64(ep.ColdInstructions)
			}
		}
		if err == nil {
			err = timed("core.combine_ms", func() (err error) {
				res, err = optiwise.Analyze(prog, sp, ep, opts)
				return err
			})
		}
		if err == nil {
			err = timed("cfg.build_ms", func() (err error) {
				g, err = cfg.Build(prog.Raw(), ep)
				return err
			})
		}
		if err == nil {
			for _, fn := range prog.Raw().Functions {
				fg := functionGraph(g, fn)
				if fg.NumNodes() == 0 {
					continue
				}
				timed("dom.compute_ms", func() error { dom.Compute(fg); return nil })
				timed("loops.find_ms", func() error { loops.FindCtx(context.Background(), fg); return nil })
			}
			err = timed("report.render_ms", func() (err error) {
				r, err = render(res)
				return err
			})
		}
		if err == nil {
			err = checkResult(key, res, r)
		}
		rec.close(parent, map[string]any{"program": p.name})
		if !tl.record(err) {
			return led, fmt.Errorf("%s: layer by layer: %w", key, err)
		}
	}
	rec.close(round, nil)
	led["sampler.mcyc_per_s"] = ratio(led["sampler.sim_cycles"]/1e6, led["sampler.busy_ms"]/1e3)
	led["sampler.minst_per_s"] = ratio(led["sampler.sim_insts"]/1e6, led["sampler.busy_ms"]/1e3)
	led["dbi.minst_per_s"] = ratio(dbiInsts/1e6, led["dbi.busy_ms"]/1e3)
	led["dbi.cold_share"] = ratio(coldInsts, dbiInsts)
	return led, nil
}

// medianLedger reduces per-round ledgers to the median of each entry.
func medianLedger(rounds []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, r := range rounds {
		for k, v := range r {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}
