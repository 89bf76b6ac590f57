package core

import (
	"context"
	"sort"

	"optiwise/internal/dbi"
	"optiwise/internal/isa"
	"optiwise/internal/loops"
	"optiwise/internal/program"
	"optiwise/internal/sampler"
)

// fnGraph adapts one function's CFG subgraph to the loop finder: local
// node ids 0..n-1 with node 0 the function entry.
type fnGraph struct {
	blocks  []int // local id -> graph block index
	local   map[int]int
	succs   [][]int
	edgeFrq map[[2]int]uint64
}

func (f *fnGraph) NumNodes() int     { return len(f.blocks) }
func (f *fnGraph) Succs(n int) []int { return f.succs[n] }
func (f *fnGraph) EdgeFreq(from, to int) uint64 {
	return f.edgeFrq[[2]int{from, to}]
}

// pendingLoop is one merged loop being aggregated.
type pendingLoop struct {
	rec    LoopRecord
	blocks map[int]bool // graph block indices
	parent int          // merge-local parent index, rebased during concat
}

// functionLoops finds and merges one function's loops: CFG subgraph
// extraction, dominator analysis, and Algorithm 2 merging. It is pure
// with respect to the Profile (reads only the graph and program), so
// buildLoops fans it out across functions. Loop IDs and parents are
// local to the function; the deterministic concatenation in buildLoops
// rebases them.
func (p *Profile) functionLoops(ctx context.Context, fn program.Function, threshold uint64) []pendingLoop {
	sub := p.Graph.FunctionSubgraph(fn)
	if len(sub) == 0 {
		return nil
	}
	// Entry-first local ordering.
	sort.Slice(sub, func(i, j int) bool {
		return p.Graph.Blocks[sub[i]].Start < p.Graph.Blocks[sub[j]].Start
	})
	fg := &fnGraph{
		blocks:  sub,
		local:   make(map[int]int, len(sub)),
		succs:   make([][]int, len(sub)),
		edgeFrq: make(map[[2]int]uint64),
	}
	for li, gi := range sub {
		fg.local[gi] = li
	}
	for li, gi := range sub {
		for _, e := range p.Graph.Blocks[gi].Succs {
			tl, ok := fg.local[e.To]
			if !ok {
				continue // edge leaves the function
			}
			fg.succs[li] = append(fg.succs[li], tl)
			fg.edgeFrq[[2]int{li, tl}] += e.Count
		}
	}

	merged := loops.Merge(loops.FindCtx(ctx, fg), threshold)
	out := make([]pendingLoop, 0, len(merged))
	for _, l := range merged {
		headerGi := fg.blocks[l.Header]
		header := p.Graph.Blocks[headerGi]
		rec := LoopRecord{
			Func:         fn.Name,
			HeaderOffset: header.Start,
			Parent:       -1,
			Depth:        l.Depth,
			BackEdgeFreq: l.BackEdgeFreq,
			Iterations:   header.Count,
		}
		if header.Count > l.BackEdgeFreq {
			rec.Invocations = header.Count - l.BackEdgeFreq
		}
		blocks := make(map[int]bool, len(l.Blocks))
		for ln := range l.Blocks {
			blocks[fg.blocks[ln]] = true
		}
		for gi := range blocks {
			rec.BlockStarts = append(rec.BlockStarts, p.Graph.Blocks[gi].Start)
		}
		sort.Slice(rec.BlockStarts, func(i, j int) bool {
			return rec.BlockStarts[i] < rec.BlockStarts[j]
		})
		out = append(out, pendingLoop{rec: rec, blocks: blocks, parent: l.Parent})
	}
	return out
}

// buildLoops finds, merges, and aggregates loops function by function.
// The three expensive phases — per-function loop discovery (dominators
// plus Algorithm 2), per-loop self statistics, and per-sample stack
// crediting — each fan out over a GOMAXPROCS-sized worker pool; see
// parallel.go for the determinism discipline. It returns the largest
// shard count used.
func (p *Profile) buildLoops(ctx context.Context, sp *sampler.Profile, ep *dbi.Profile, threshold uint64) int {
	// offset -> cycles from the (attributed) instruction records.
	cyclesAt := func(off uint64) uint64 {
		if r, ok := p.InstAt(off); ok {
			return r.Cycles
		}
		return 0
	}

	// Phase 1: loop discovery, one function per work item, results
	// slotted by function index and concatenated in program order.
	fns := p.Prog.Functions
	fnShards := shardCount(len(fns), 1)
	perFn := make([][]pendingLoop, len(fns))
	runShards(len(fns), fnShards, func(_, lo, hi int) {
		for fi := lo; fi < hi; fi++ {
			perFn[fi] = p.functionLoops(ctx, fns[fi], threshold)
		}
	})
	var pending []pendingLoop
	for _, fnLoops := range perFn {
		base := len(pending)
		for _, pl := range fnLoops {
			pl.rec.ID = len(pending)
			if pl.parent != -1 {
				pl.parent = base + pl.parent
			}
			pending = append(pending, pl)
		}
	}

	// Phase 2: per-loop self statistics and callee contributions.
	// Loops are independent; everything read is immutable here.
	loopShards := shardCount(len(pending), 8)
	runShards(len(pending), loopShards, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			pl := &pending[i]
			pl.rec.Parent = pl.parent
			var minLine, maxLine int
			var file string
			for gi := range pl.blocks {
				b := p.Graph.Blocks[gi]
				pl.rec.SelfInsts += b.Count * uint64(b.NumInsts())
				for off := b.Start; off < b.End; off += isa.InstBytes {
					pl.rec.SelfCycles += cyclesAt(off)
					if le, ok := p.Prog.LineAt(off); ok {
						if file == "" {
							file = le.File
						}
						if le.File == file {
							if minLine == 0 || le.Line < minLine {
								minLine = le.Line
							}
							if le.Line > maxLine {
								maxLine = le.Line
							}
						}
					}
				}
			}
			pl.rec.File, pl.rec.StartLine, pl.rec.EndLine = file, minLine, maxLine
			pl.rec.TotalInsts = pl.rec.SelfInsts
			for site, n := range ep.CalleeCounts {
				if bi := p.Graph.BlockContaining(site); bi >= 0 && pl.blocks[bi] {
					pl.rec.TotalInsts += n
				}
			}
		}
	})

	// Phase 3: stack-profiling sample attribution (§IV-D): each sample
	// credits every loop containing the sample PC or any call site on
	// its stack, at most once per sample (the recursion rule). Record
	// shards accumulate into shard-local loop-id maps; the uint64 sums
	// merge in shard order.
	loopsOf := make(map[int][]int) // graph block index -> loop ids
	for i := range pending {
		for gi := range pending[i].blocks {
			loopsOf[gi] = append(loopsOf[gi], i)
		}
	}
	nrec := len(sp.Records)
	creditShards := shardCount(nrec, minRecordsPerShard)
	partials := make([]map[int]uint64, creditShards)
	runShards(nrec, creditShards, func(s, lo, hi int) {
		part := make(map[int]uint64)
		for _, rec := range sp.Records[lo:hi] {
			credited := make(map[int]bool)
			credit := func(off uint64) {
				bi := p.Graph.BlockContaining(off)
				if bi < 0 {
					return
				}
				for _, li := range loopsOf[bi] {
					if !credited[li] {
						credited[li] = true
						part[li] += rec.Weight
					}
				}
			}
			credit(rec.Offset)
			for _, ra := range rec.Stack {
				if ra >= isa.InstBytes {
					credit(ra - isa.InstBytes)
				}
			}
		}
		partials[s] = part
	})
	for _, part := range partials {
		for li, cyc := range part {
			pending[li].rec.TotalCycles += cyc
		}
	}

	for i := range pending {
		r := &pending[i].rec
		if r.TotalInsts > 0 {
			r.CPI = float64(r.TotalCycles) / float64(r.TotalInsts)
		}
		if r.Iterations > 0 {
			r.InstsPerIter = float64(r.TotalInsts) / float64(r.Iterations)
		}
		if p.TotalCycles > 0 {
			r.TimeFrac = float64(r.TotalCycles) / float64(p.TotalCycles)
		}
		p.Loops = append(p.Loops, *r)
	}
	sort.Slice(p.Loops, func(i, j int) bool {
		if p.Loops[i].TotalCycles != p.Loops[j].TotalCycles {
			return p.Loops[i].TotalCycles > p.Loops[j].TotalCycles
		}
		return p.Loops[i].ID < p.Loops[j].ID
	})

	maxShards := fnShards
	if loopShards > maxShards {
		maxShards = loopShards
	}
	if creditShards > maxShards {
		maxShards = creditShards
	}
	return maxShards
}
