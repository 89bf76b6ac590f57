// Package core implements OptiWISE's primary contribution: combining a
// sampling profile with an instrumentation profile into granular CPI
// metrics (component 5 in the paper's figure 3).
//
// For any set of program addresses A, the expected sample count obeys
// E(S_A) = N_A × T_A × f (§III): execution count times per-execution
// sampled time times sampling frequency. The instrumentation run supplies
// N_A exactly; the sampling run supplies S_A (weighted by elapsed user
// cycles, §IV-B); dividing yields the cycles attributable per execution —
// per instruction, basic block, loop, source line, or function.
package core

import (
	"sort"

	"optiwise/internal/cfg"
	"optiwise/internal/dbi"
	"optiwise/internal/isa"
	"optiwise/internal/ooo"
	"optiwise/internal/program"
)

// InstRecord is the per-instruction profile: the paper's headline metric.
type InstRecord struct {
	Offset uint64
	Inst   isa.Instruction
	Disasm string
	// Func is the enclosing function name ("" if none).
	Func string
	// File/Line are the source location from debug info (Line 0 if none).
	File string
	Line int

	// ExecCount is N from instrumentation.
	ExecCount uint64
	// Samples is the raw (possibly re-attributed) sample count.
	Samples uint64
	// Cycles is the weighted sample mass: estimated user cycles spent
	// with this instruction at the sampling point.
	Cycles uint64
	// CacheMisses / Mispredicts are sampled event masses attributed to
	// this instruction (events since the previous sample, summed).
	CacheMisses uint64
	Mispredicts uint64
	// CPI is Cycles / ExecCount; 0 when ExecCount is 0.
	CPI float64
	// Estimated marks a tiered-mode cold-code record: ExecCount (and
	// the CPI derived from it) is extrapolated from sampling
	// time-shares rather than measured by instrumentation. Omitted from
	// JSON when false so exports of full runs are unchanged.
	Estimated bool `json:",omitempty"`
}

// FuncRecord aggregates a function.
type FuncRecord struct {
	Name string
	Lo   uint64

	// SelfCycles counts samples whose PC lies in the function;
	// TotalCycles additionally counts samples whose call stack passes
	// through the function (each function counted once per sample —
	// the §IV-D recursion rule).
	SelfCycles  uint64
	TotalCycles uint64
	SelfSamples uint64

	// SelfInsts is the number of instructions retired inside the
	// function; TotalInsts adds instructions retired in its callees
	// (from the stack-profiling callee_count_table).
	SelfInsts  uint64
	TotalInsts uint64
	// CacheMisses / Mispredicts are sampled event masses whose PC fell
	// inside the function.
	CacheMisses uint64
	Mispredicts uint64

	// CPI and IPC are self metrics (SelfCycles / SelfInsts).
	CPI float64
	IPC float64
	// TimeFrac is TotalCycles over the whole run's cycles.
	TimeFrac float64
	// Estimated marks a function whose instruction totals include
	// tiered-mode extrapolated cold-code counts (see InstRecord).
	Estimated bool `json:",omitempty"`
}

// LoopRecord aggregates one merged loop (§IV-E).
type LoopRecord struct {
	ID   int
	Func string
	// HeaderOffset is the loop header block's start offset.
	HeaderOffset uint64
	// Parent is the ID of the innermost enclosing loop, or -1.
	Parent int
	Depth  int
	// BlockStarts lists the loop body's CFG block start offsets.
	BlockStarts []uint64
	// File/StartLine/EndLine give the heuristic source range covered by
	// the loop body's line entries.
	File      string
	StartLine int
	EndLine   int

	// Invocations counts entries into the loop from outside;
	// Iterations counts header executions.
	Invocations uint64
	Iterations  uint64
	// BackEdgeFreq is the summed frequency of the loop's back edges.
	BackEdgeFreq uint64

	// SelfCycles counts samples inside the loop body; TotalCycles adds
	// samples attributed through call stacks (§IV-D).
	SelfCycles  uint64
	TotalCycles uint64
	// SelfInsts counts instructions retired in the body; TotalInsts adds
	// callee instructions via callee_count_table.
	SelfInsts  uint64
	TotalInsts uint64

	// CPI is TotalCycles / TotalInsts.
	CPI float64
	// InstsPerIter is TotalInsts / Iterations.
	InstsPerIter float64
	// TimeFrac is TotalCycles over the run's total cycles.
	TimeFrac float64
}

// BlockRecord aggregates a compiler basic block — the granularity between
// instructions and loops in the paper's §I list.
type BlockRecord struct {
	// Start/End are the block's module offset bounds (End exclusive).
	Start, End uint64
	Func       string
	// ExecCount is the block's execution count; Insts its static size.
	ExecCount uint64
	Insts     int
	Samples   uint64
	Cycles    uint64
	// CPI is Cycles over dynamic instructions (ExecCount × Insts).
	CPI      float64
	TimeFrac float64
}

// LineRecord aggregates a source line.
type LineRecord struct {
	File string
	Line int

	ExecCount uint64
	Samples   uint64
	Cycles    uint64
	CPI       float64
	TimeFrac  float64
	// Estimated marks a line whose counts include tiered-mode
	// extrapolated cold-code records (see InstRecord).
	Estimated bool `json:",omitempty"`
}

// Names for the two profiling passes, as recorded in
// Profile.FailedPass on degraded results.
const (
	PassSampling        = "sampling"
	PassInstrumentation = "instrumentation"
)

// Profile is the combined analysis result.
type Profile struct {
	Module string
	Prog   *program.Program
	Graph  *cfg.Graph

	// Tiered marks a profile whose instrumentation pass ran selectively
	// (DESIGN.md §12): counts inside HotRanges are exact, cold-code
	// records carry extrapolated counts flagged Estimated, and
	// ColdInsts is the exactly-known number of instructions retired in
	// cold code. Unlike Degraded, a tiered result is a complete,
	// intentional two-pass profile — cycles are exact everywhere; only
	// cold-code execution counts are estimates.
	Tiered    bool
	HotRanges []dbi.Range
	ColdInsts uint64

	// Degraded marks a single-pass result: one profiling pass failed and
	// the caller opted into a partial view (Options.AllowDegraded). A
	// degraded profile is missing half its inputs — sampling-only
	// profiles carry no execution counts (instruction totals are
	// time-share estimates), counts-only profiles carry no cycles — so
	// every consumer must surface the flag, and result caches must never
	// admit one (DESIGN.md §8).
	Degraded bool
	// FailedPass names the pass whose data is missing: PassSampling or
	// PassInstrumentation. Empty on full results.
	FailedPass string
	// DegradedReason is the failed pass's error text, for reports and
	// job-status payloads.
	DegradedReason string

	// TotalCycles is the sampled run's user cycles; TotalInsts the
	// instrumented run's retired instructions; TotalSamples the number of
	// samples combined.
	TotalCycles  uint64
	TotalInsts   uint64
	TotalSamples uint64
	SamplePeriod uint64
	// UnmatchedSamples counts samples at offsets the instrumentation run
	// never executed — non-zero only when the two profiling runs took
	// different control flow (§IV-F).
	UnmatchedSamples uint64
	// IPC is the whole-program instructions per cycle.
	IPC float64

	// Collection metadata, recorded so differential analysis can verify
	// two profiles are comparable before computing deltas: the simulated
	// machine's name, whether sampling was PEBS-precise, whether sample
	// weights were ignored (Unweighted ablation), the resolved sample
	// attribution mode ("none" or "predecessor"), Algorithm 2's loop
	// threshold, and whether Algorithm 1 stack profiling ran.
	Machine        string
	Precise        bool
	Unweighted     bool
	Attribution    string
	LoopThreshold  uint64
	StackProfiling bool

	// Intervals is the opt-in cycle-windowed telemetry stream from the
	// sampled run's simulated core (IPC, ROB occupancy, mispredict and
	// cache-miss rates, stall causes per window); nil when telemetry was
	// disabled. IntervalWindow is the window size that produced it.
	Intervals      []ooo.Interval
	IntervalWindow uint64

	Insts  []InstRecord  // sorted by offset; only executed instructions
	Blocks []BlockRecord // sorted by Cycles descending
	Funcs  []FuncRecord  // sorted by TotalCycles descending
	Loops  []LoopRecord  // sorted by TotalCycles descending
	Lines  []LineRecord  // sorted by Cycles descending

	funcIndex map[string]int
}

// instIdx returns the position of the first record at or after off in
// the offset-sorted Insts.
func (p *Profile) instIdx(off uint64) int {
	return sort.Search(len(p.Insts), func(i int) bool { return p.Insts[i].Offset >= off })
}

// InstAt returns the record for the instruction at off.
func (p *Profile) InstAt(off uint64) (InstRecord, bool) {
	if i := p.instIdx(off); i < len(p.Insts) && p.Insts[i].Offset == off {
		return p.Insts[i], true
	}
	return InstRecord{}, false
}

// FuncByName returns the record for the named function.
func (p *Profile) FuncByName(name string) (FuncRecord, bool) {
	if i, ok := p.funcIndex[name]; ok {
		return p.Funcs[i], true
	}
	return FuncRecord{}, false
}

// LoopByHeader returns the outermost loop record headed at off.
func (p *Profile) LoopByHeader(off uint64) (LoopRecord, bool) {
	best := -1
	for i, l := range p.Loops {
		if l.HeaderOffset == off && (best == -1 || l.Depth < p.Loops[best].Depth) {
			best = i
		}
	}
	if best == -1 {
		return LoopRecord{}, false
	}
	return p.Loops[best], true
}

// HottestInst returns the executed instruction with the highest cycle
// mass, breaking ties toward lower offsets.
func (p *Profile) HottestInst() (InstRecord, bool) {
	best := -1
	for i := range p.Insts {
		if best == -1 || p.Insts[i].Cycles > p.Insts[best].Cycles {
			best = i
		}
	}
	if best == -1 {
		return InstRecord{}, false
	}
	return p.Insts[best], true
}
