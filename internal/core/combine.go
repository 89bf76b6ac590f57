package core

import (
	"context"
	"fmt"
	"sort"

	"optiwise/internal/cfg"
	"optiwise/internal/dbi"
	"optiwise/internal/fault"
	"optiwise/internal/isa"
	"optiwise/internal/loops"
	"optiwise/internal/obs"
	"optiwise/internal/program"
	"optiwise/internal/sampler"
)

// Attribution selects how samples are mapped back to the instructions that
// caused them (§III, §V-B).
type Attribution int

const (
	// AttrAuto applies the predecessor heuristic to skid profiles and
	// leaves PEBS-style precise profiles untouched.
	AttrAuto Attribution = iota
	// AttrNone uses the sampled PCs as-is.
	AttrNone
	// AttrPredecessor re-assigns every sample to the sampled PC's dynamic
	// predecessor (§III point 1).
	AttrPredecessor
)

// Options configures the combiner.
type Options struct {
	Attribution Attribution
	// Unweighted ignores sample weights and estimates cycles as
	// samples × period (ablation for the §IV-B weighting).
	Unweighted bool
	// LoopThreshold is Algorithm 2's T; 0 means loops.DefaultThreshold.
	LoopThreshold uint64
	// Machine names the simulated processor the profiles were collected
	// on. Recorded in the Profile (and its Export) so differential
	// analysis can refuse to compare profiles from different machines.
	Machine string
	// Tiered records that the caller requested tiered selective
	// instrumentation (DESIGN.md §12). CombineContext learns tiered-ness
	// from the edge profile itself; the option matters only for the
	// degraded sampling-only view, where no edge profile survives to
	// carry the flag but the result must still render as tiered.
	Tiered bool
}

// resolveAttribution maps AttrAuto onto the mode actually applied for a
// profile with the given precision, mirroring attributeSamples.
func resolveAttribution(a Attribution, precise bool) Attribution {
	if a != AttrAuto {
		return a
	}
	if precise {
		return AttrNone
	}
	return AttrPredecessor
}

// String names the attribution mode for exports and reports.
func (a Attribution) String() string {
	switch a {
	case AttrNone:
		return "none"
	case AttrPredecessor:
		return "predecessor"
	default:
		return "auto"
	}
}

// Combine merges the two profiling runs into the granular CPI profile.
func Combine(prog *program.Program, sp *sampler.Profile, ep *dbi.Profile, opts Options) (*Profile, error) {
	return CombineContext(context.Background(), prog, sp, ep, opts)
}

// CombineContext is Combine with explicit span parenting: the combine
// span and its sub-phase spans open under the span carried by ctx via
// obs.StartCtx, so concurrent jobs in one process (the profiling
// service) each get a complete, correctly nested analysis subtree on
// their own tracer. With a bare context the behaviour is identical to
// Combine. The context is trace plumbing only — the analysis is not
// internally cancellable (it is orders of magnitude cheaper than the
// profiled executions).
func CombineContext(ctx context.Context, prog *program.Program, sp *sampler.Profile, ep *dbi.Profile, opts Options) (*Profile, error) {
	if sp.Module != ep.Module {
		return nil, fmt.Errorf("core: module mismatch: sampling profile %q vs edge profile %q",
			sp.Module, ep.Module)
	}
	if err := fault.Err(fault.SiteCombine); err != nil {
		return nil, fmt.Errorf("core: combine: %w", err)
	}
	combineSpan := obs.StartCtx(ctx, "combine").SetAttr("module", prog.Module)
	defer combineSpan.End()
	ctx = obs.ContextWithSpan(ctx, combineSpan)

	cfgSpan := obs.StartCtx(ctx, "cfg_build").SetAttr("dyn_blocks", len(ep.Blocks))
	graph, err := cfg.Build(prog, ep)
	if err != nil {
		cfgSpan.End()
		return nil, err
	}
	cfgSpan.SetAttr("cfg_blocks", len(graph.Blocks)).End()
	t := opts.LoopThreshold
	if t == 0 {
		t = loops.DefaultThreshold
	}

	p := &Profile{
		Module:         prog.Module,
		Prog:           prog,
		Graph:          graph,
		SamplePeriod:   sp.Period,
		TotalInsts:     ep.BaseInstructions,
		Machine:        opts.Machine,
		Precise:        sp.Precise,
		Unweighted:     opts.Unweighted,
		Attribution:    resolveAttribution(opts.Attribution, sp.Precise).String(),
		LoopThreshold:  t,
		StackProfiling: ep.StackProfiling,
		funcIndex:      make(map[string]int),
	}

	// Tiered runs (DESIGN.md §12) carry exact counts only for the
	// instrumented ranges; sampled offsets outside them are expected —
	// they are cold code, not cross-run divergence — and get execution
	// counts extrapolated from the sampling time-shares below. The mode
	// is set before attribution: predecessor re-attribution needs to
	// know the CFG is partial.
	var sel *dbi.Selection
	var coldOffs map[uint64]bool
	var coldCycles uint64
	if ep.Tiered {
		p.Tiered = true
		p.HotRanges = ep.HotRanges
		p.ColdInsts = ep.ColdInstructions
		sel = dbi.NewSelection(ep.HotRanges)
		coldOffs = make(map[uint64]bool)
	}

	// --- Per-instruction: N from instrumentation, S and cycles from
	// sampling, with optional predecessor re-attribution.
	attrSpan := obs.StartCtx(ctx, "attribution").SetAttr("samples", len(sp.Records))
	execCounts := ep.ExecCounts()
	samples, cycles, misses, brmp, attrShards := p.attributeSamples(sp, opts)
	attrSpan.SetAttr("shards", attrShards).End()

	// The two runs need not have identical control flow (§IV-F): a
	// non-deterministic program may produce samples at offsets the
	// instrumented run never executed. Keep such records — with a zero
	// execution count and no CPI — rather than silently dropping time,
	// and surface the total in UnmatchedSamples so users can judge how
	// representative the combination is.
	offsetSet := make(map[uint64]bool, len(execCounts))
	for off := range execCounts {
		offsetSet[off] = true
	}
	for off := range samples {
		if !offsetSet[off] {
			offsetSet[off] = true
			if sel != nil && !sel.Covers(off) {
				coldOffs[off] = true
				coldCycles += cycles[off]
				continue
			}
			p.UnmatchedSamples += samples[off]
		}
	}
	offsets := make([]uint64, 0, len(offsetSet))
	for off := range offsetSet {
		offsets = append(offsets, off)
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	p.Insts = make([]InstRecord, 0, len(offsets))
	for _, off := range offsets {
		inst, ok := prog.InstAt(off)
		if !ok {
			return nil, fmt.Errorf("core: executed offset 0x%x has no instruction", off)
		}
		r := InstRecord{
			Offset:      off,
			Inst:        inst,
			Disasm:      isa.Disassemble(inst),
			ExecCount:   execCounts[off],
			Samples:     samples[off],
			Cycles:      cycles[off],
			CacheMisses: misses[off],
			Mispredicts: brmp[off],
		}
		if fn, ok := prog.FuncAt(off); ok {
			r.Func = fn.Name
		}
		if le, ok := prog.LineAt(off); ok {
			r.File, r.Line = le.File, le.Line
		}
		if coldOffs[off] {
			// Cold-code extrapolation: apportion the run's exactly-known
			// cold retirement total across the sampled cold offsets by
			// cycle share. This assumes uniform CPI across cold code —
			// the same assumption degraded sampling-only mode makes for
			// whole functions — so the count (and the CPI derived from
			// it) is an estimate, flagged as such everywhere it surfaces.
			r.ExecCount = timeShare(ep.ColdInstructions, cycles[off], coldCycles)
			r.Estimated = true
		}
		if r.ExecCount > 0 {
			r.CPI = float64(r.Cycles) / float64(r.ExecCount)
		}
		p.Insts = append(p.Insts, r)
		p.TotalCycles += r.Cycles
		p.TotalSamples += r.Samples
	}
	if sp.UserCycles > 0 {
		// Prefer the sampled run's own cycle counter for the program
		// total: it includes cycles before the first sample.
		p.TotalCycles = sp.UserCycles
	}
	// Carry the sampled run's interval telemetry (empty when disabled)
	// so reports and exports can render the phase structure.
	p.Intervals = sp.Intervals
	p.IntervalWindow = sp.IntervalCycles
	if p.TotalCycles > 0 {
		p.IPC = float64(p.TotalInsts) / float64(p.TotalCycles)
	}
	obs.Counter(obs.MCombineInsts).Add(uint64(len(p.Insts)))
	obs.Counter(obs.MUnmatchedSamples).Add(p.UnmatchedSamples)

	aggSpan := obs.StartCtx(ctx, "aggregation")
	aggCtx := obs.ContextWithSpan(ctx, aggSpan)
	fnSpan := obs.StartCtx(aggCtx, "funcs")
	p.buildFuncs(sp, ep)
	fnSpan.SetAttr("funcs", len(p.Funcs)).End()
	loopSpan := obs.StartCtx(aggCtx, "loop_merge").SetAttr("threshold", t)
	loopShards := p.buildLoops(obs.ContextWithSpan(aggCtx, loopSpan), sp, ep, t)
	loopSpan.SetAttr("loops", len(p.Loops)).SetAttr("shards", loopShards).End()
	if loopShards > attrShards {
		attrShards = loopShards
	}
	obs.Gauge(obs.MAnalyzeShards).Set(int64(attrShards))
	obs.Counter(obs.MCombineLoops).Add(uint64(len(p.Loops)))
	lineSpan := obs.StartCtx(aggCtx, "lines")
	p.buildLines()
	lineSpan.End()
	blockSpan := obs.StartCtx(aggCtx, "blocks")
	p.buildBlocks()
	blockSpan.End()
	aggSpan.End()
	return p, nil
}

// buildBlocks aggregates the per-instruction records into basic blocks.
func (p *Profile) buildBlocks() {
	for _, b := range p.Graph.Blocks {
		r := BlockRecord{
			Start:     b.Start,
			End:       b.End,
			ExecCount: b.Count,
			Insts:     b.NumInsts(),
		}
		if fn, ok := p.Prog.FuncAt(b.Start); ok {
			r.Func = fn.Name
		}
		for i := p.instIdx(b.Start); i < len(p.Insts) && p.Insts[i].Offset < b.End; i++ {
			r.Samples += p.Insts[i].Samples
			r.Cycles += p.Insts[i].Cycles
		}
		if dyn := r.ExecCount * uint64(r.Insts); dyn > 0 {
			r.CPI = float64(r.Cycles) / float64(dyn)
		}
		if p.TotalCycles > 0 {
			r.TimeFrac = float64(r.Cycles) / float64(p.TotalCycles)
		}
		p.Blocks = append(p.Blocks, r)
	}
	sort.Slice(p.Blocks, func(i, j int) bool {
		if p.Blocks[i].Cycles != p.Blocks[j].Cycles {
			return p.Blocks[i].Cycles > p.Blocks[j].Cycles
		}
		return p.Blocks[i].Start < p.Blocks[j].Start
	})
}

// attributeSamples folds the raw records into per-offset sample counts and
// cycle masses, applying the requested attribution. The fold fans out
// over shard-local maps (the predecessor lookup walks the CFG per
// sample, which dominates large profiles) and merges them by addition,
// so the result is independent of scheduling. It also reports the
// number of worker shards used.
func (p *Profile) attributeSamples(sp *sampler.Profile, opts Options) (samples, cycles, misses, brmp map[uint64]uint64, shards int) {
	attr := resolveAttribution(opts.Attribution, sp.Precise)
	type shardMaps struct {
		samples, cycles, misses, brmp map[uint64]uint64
	}
	n := len(sp.Records)
	shards = shardCount(n, minRecordsPerShard)
	parts := make([]shardMaps, shards)
	runShards(n, shards, func(s, lo, hi int) {
		m := shardMaps{
			samples: make(map[uint64]uint64),
			cycles:  make(map[uint64]uint64),
			misses:  make(map[uint64]uint64),
			brmp:    make(map[uint64]uint64),
		}
		for _, r := range sp.Records[lo:hi] {
			off := r.Offset
			if attr == AttrPredecessor {
				off = p.predecessor(off)
			}
			m.samples[off]++
			if opts.Unweighted {
				m.cycles[off] += sp.Period
			} else {
				m.cycles[off] += r.Weight
			}
			m.misses[off] += r.CacheMisses
			m.brmp[off] += r.Mispredicts
		}
		parts[s] = m
	})
	samples = make(map[uint64]uint64)
	cycles = make(map[uint64]uint64)
	misses = make(map[uint64]uint64)
	brmp = make(map[uint64]uint64)
	for _, m := range parts {
		for off, v := range m.samples {
			samples[off] += v
		}
		for off, v := range m.cycles {
			cycles[off] += v
		}
		for off, v := range m.misses {
			misses[off] += v
		}
		for off, v := range m.brmp {
			brmp[off] += v
		}
	}
	return samples, cycles, misses, brmp, shards
}

// predecessor maps off to its most likely dynamic predecessor: the prior
// instruction within the same CFG block, or — at a block head — the last
// instruction of the hottest incoming edge's source block.
func (p *Profile) predecessor(off uint64) uint64 {
	bi := p.Graph.BlockContaining(off)
	if bi < 0 {
		// A tiered graph covers only the instrumented code, so a skidded
		// sample that lands one slot past a hot block's end has no
		// containing block even though its true predecessor is known
		// statically. Walk back to the fallthrough predecessor in that
		// exact shape; otherwise the cycles of hot terminators would
		// leak into the cold extrapolation pool and skew the hot block's
		// CPI against its full-profile counterpart.
		if p.Tiered && off >= isa.InstBytes {
			if pi := p.Graph.BlockContaining(off - isa.InstBytes); pi >= 0 && p.Graph.Blocks[pi].End == off {
				return off - isa.InstBytes
			}
		}
		return off
	}
	b := p.Graph.Blocks[bi]
	if off > b.Start {
		return off - isa.InstBytes
	}
	var best *cfg.Edge
	for _, e := range b.Preds {
		if best == nil || e.Count > best.Count {
			best = e
		}
	}
	if best == nil {
		return off
	}
	src := p.Graph.Blocks[best.From]
	if src.End == 0 {
		return off
	}
	return src.End - isa.InstBytes
}

// buildFuncs aggregates per-function self and total statistics.
func (p *Profile) buildFuncs(sp *sampler.Profile, ep *dbi.Profile) {
	recs := make(map[string]*FuncRecord)
	get := func(name string, lo uint64) *FuncRecord {
		r := recs[name]
		if r == nil {
			r = &FuncRecord{Name: name, Lo: lo}
			recs[name] = r
		}
		return r
	}

	// Self stats from the per-instruction records.
	for _, ir := range p.Insts {
		if ir.Func == "" {
			continue
		}
		r := get(ir.Func, 0)
		r.SelfCycles += ir.Cycles
		r.SelfSamples += ir.Samples
		r.SelfInsts += ir.ExecCount
		r.CacheMisses += ir.CacheMisses
		r.Mispredicts += ir.Mispredicts
		if ir.Estimated {
			r.Estimated = true
		}
	}
	for _, fn := range p.Prog.Functions {
		if r, ok := recs[fn.Name]; ok {
			r.Lo = fn.Lo
		}
	}

	// Total instructions: self plus callee_count_table sums over the
	// function's call sites.
	for site, n := range ep.CalleeCounts {
		if fn, ok := p.Prog.FuncAt(site); ok {
			get(fn.Name, fn.Lo).TotalInsts += n
		}
	}
	for _, r := range recs {
		r.TotalInsts += r.SelfInsts
	}

	// Total cycles via stack walks: each sample credits every distinct
	// function on its stack once (§IV-D recursion rule). The walk fans
	// out over record shards, each accumulating cycles into its own
	// name-keyed map; the shard sums merge by addition, so the totals
	// match a sequential walk exactly.
	nrec := len(sp.Records)
	creditShards := shardCount(nrec, minRecordsPerShard)
	partials := make([]map[string]uint64, creditShards)
	runShards(nrec, creditShards, func(s, lo, hi int) {
		part := make(map[string]uint64)
		for _, rec := range sp.Records[lo:hi] {
			seen := make(map[string]bool, len(rec.Stack)+1)
			credit := func(off uint64) {
				if fn, ok := p.Prog.FuncAt(off); ok && !seen[fn.Name] {
					seen[fn.Name] = true
					part[fn.Name] += rec.Weight
				}
			}
			credit(rec.Offset)
			for _, ra := range rec.Stack {
				if ra >= isa.InstBytes {
					credit(ra - isa.InstBytes) // the call site
				}
			}
		}
		partials[s] = part
	})
	for _, part := range partials {
		for name, cyc := range part {
			fn, _ := p.Prog.FuncByName(name)
			get(name, fn.Lo).TotalCycles += cyc
		}
	}

	for _, r := range recs {
		if r.SelfInsts > 0 {
			r.CPI = float64(r.SelfCycles) / float64(r.SelfInsts)
			if r.SelfCycles > 0 {
				r.IPC = float64(r.SelfInsts) / float64(r.SelfCycles)
			}
		}
		if p.TotalCycles > 0 {
			r.TimeFrac = float64(r.TotalCycles) / float64(p.TotalCycles)
		}
		p.Funcs = append(p.Funcs, *r)
	}
	sort.Slice(p.Funcs, func(i, j int) bool {
		if p.Funcs[i].TotalCycles != p.Funcs[j].TotalCycles {
			return p.Funcs[i].TotalCycles > p.Funcs[j].TotalCycles
		}
		return p.Funcs[i].Name < p.Funcs[j].Name
	})
	for i := range p.Funcs {
		p.funcIndex[p.Funcs[i].Name] = i
	}
}

// buildLines aggregates per-source-line statistics.
func (p *Profile) buildLines() {
	type key struct {
		file string
		line int
	}
	recs := make(map[key]*LineRecord)
	for _, ir := range p.Insts {
		if ir.Line == 0 {
			continue
		}
		k := key{ir.File, ir.Line}
		r := recs[k]
		if r == nil {
			r = &LineRecord{File: ir.File, Line: ir.Line}
			recs[k] = r
		}
		r.ExecCount += ir.ExecCount
		r.Samples += ir.Samples
		r.Cycles += ir.Cycles
		if ir.Estimated {
			r.Estimated = true
		}
	}
	for _, r := range recs {
		if r.ExecCount > 0 {
			r.CPI = float64(r.Cycles) / float64(r.ExecCount)
		}
		if p.TotalCycles > 0 {
			r.TimeFrac = float64(r.Cycles) / float64(p.TotalCycles)
		}
		p.Lines = append(p.Lines, *r)
	}
	sort.Slice(p.Lines, func(i, j int) bool {
		if p.Lines[i].Cycles != p.Lines[j].Cycles {
			return p.Lines[i].Cycles > p.Lines[j].Cycles
		}
		if p.Lines[i].File != p.Lines[j].File {
			return p.Lines[i].File < p.Lines[j].File
		}
		return p.Lines[i].Line < p.Lines[j].Line
	})
}
