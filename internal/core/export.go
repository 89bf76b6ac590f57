package core

import (
	"encoding/json"
	"fmt"
	"io"

	"optiwise/internal/cfg"
	"optiwise/internal/dbi"
	"optiwise/internal/ooo"
	"optiwise/internal/program"
)

// Export is the serializable form of a combined profile: the record tables
// and totals, without the program image or CFG (which downstream tools
// reconstruct from the original binary if needed).
type Export struct {
	Module           string  `json:"module"`
	TotalCycles      uint64  `json:"total_cycles"`
	TotalInsts       uint64  `json:"total_instructions"`
	TotalSamples     uint64  `json:"total_samples"`
	SamplePeriod     uint64  `json:"sample_period"`
	UnmatchedSamples uint64  `json:"unmatched_samples,omitempty"`
	IPC              float64 `json:"ipc"`
	Degraded         bool    `json:"degraded,omitempty"`
	FailedPass       string  `json:"failed_pass,omitempty"`
	DegradedReason   string  `json:"degraded_reason,omitempty"`
	// Tiered-mode fields (DESIGN.md §12); all omitempty so exports of
	// full runs are unchanged.
	Tiered    bool        `json:"tiered,omitempty"`
	HotRanges []dbi.Range `json:"hot_ranges,omitempty"`
	ColdInsts uint64      `json:"cold_instructions,omitempty"`
	// Collection metadata (see Profile): lets differential analysis
	// refuse incomparable pairs. All omitempty so exports written before
	// these fields existed decode (and re-encode) unchanged.
	Machine        string `json:"machine,omitempty"`
	Precise        bool   `json:"precise,omitempty"`
	Unweighted     bool   `json:"unweighted,omitempty"`
	Attribution    string `json:"attribution,omitempty"`
	LoopThreshold  uint64 `json:"loop_threshold,omitempty"`
	StackProfiling bool   `json:"stack_profiling,omitempty"`
	// Intervals is the opt-in cycle-windowed core telemetry stream;
	// omitted when telemetry was disabled, keeping legacy exports
	// byte-identical.
	Intervals      []ooo.Interval `json:"intervals,omitempty"`
	IntervalWindow uint64         `json:"interval_window,omitempty"`
	Insts          []InstRecord   `json:"instructions"`
	Blocks         []BlockRecord  `json:"blocks"`
	Funcs          []FuncRecord   `json:"functions"`
	Loops          []LoopRecord   `json:"loops"`
	Lines          []LineRecord   `json:"lines"`
}

// Export returns the profile's serializable form. The record slices are
// shared, not copied — treat the result as a read-only view.
func (p *Profile) Export() *Export {
	return &Export{
		Module:           p.Module,
		TotalCycles:      p.TotalCycles,
		TotalInsts:       p.TotalInsts,
		TotalSamples:     p.TotalSamples,
		SamplePeriod:     p.SamplePeriod,
		UnmatchedSamples: p.UnmatchedSamples,
		IPC:              p.IPC,
		Degraded:         p.Degraded,
		FailedPass:       p.FailedPass,
		DegradedReason:   p.DegradedReason,
		Tiered:           p.Tiered,
		HotRanges:        p.HotRanges,
		ColdInsts:        p.ColdInsts,
		Machine:          p.Machine,
		Precise:          p.Precise,
		Unweighted:       p.Unweighted,
		Attribution:      p.Attribution,
		LoopThreshold:    p.LoopThreshold,
		StackProfiling:   p.StackProfiling,
		Intervals:        p.Intervals,
		IntervalWindow:   p.IntervalWindow,
		Insts:            p.Insts,
		Blocks:           p.Blocks,
		Funcs:            p.Funcs,
		Loops:            p.Loops,
		Lines:            p.Lines,
	}
}

// WriteJSON serializes the profile's analysis results.
func (p *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(p.Export())
}

// ReadExport deserializes a profile written by WriteJSON. The result
// carries the record tables only; methods requiring the program image
// (InstAt disassembly context is embedded in records already) work on the
// tables alone.
func ReadExport(r io.Reader) (*Export, error) {
	var e Export
	if err := json.NewDecoder(r).Decode(&e); err != nil {
		return nil, fmt.Errorf("core: decode export: %w", err)
	}
	return &e, nil
}

// FromExport rebuilds a full Profile from its serialized form plus the
// program image (which the export deliberately omits) and an optional
// CFG. The cluster layer uses it to reconstitute a result fetched from
// a sibling node's cache: the fetching node already holds the program —
// the content address is derived from it — so only the analysis tables
// and the flattened CFG travel over the wire. FuncByName's index is
// rebuilt from the tables and InstAt searches the instruction table,
// which keeps the offset order Combine wrote, so the reconstruction
// behaves identically to the original for every renderer and API
// consumer.
func FromExport(e *Export, prog *program.Program, g *cfg.Graph) *Profile {
	p := &Profile{
		Module:           e.Module,
		Prog:             prog,
		Graph:            g,
		Degraded:         e.Degraded,
		FailedPass:       e.FailedPass,
		DegradedReason:   e.DegradedReason,
		Tiered:           e.Tiered,
		HotRanges:        e.HotRanges,
		ColdInsts:        e.ColdInsts,
		TotalCycles:      e.TotalCycles,
		TotalInsts:       e.TotalInsts,
		TotalSamples:     e.TotalSamples,
		SamplePeriod:     e.SamplePeriod,
		UnmatchedSamples: e.UnmatchedSamples,
		IPC:              e.IPC,
		Machine:          e.Machine,
		Precise:          e.Precise,
		Unweighted:       e.Unweighted,
		Attribution:      e.Attribution,
		LoopThreshold:    e.LoopThreshold,
		StackProfiling:   e.StackProfiling,
		Intervals:        e.Intervals,
		IntervalWindow:   e.IntervalWindow,
		Insts:            e.Insts,
		Blocks:           e.Blocks,
		Funcs:            e.Funcs,
		Loops:            e.Loops,
		Lines:            e.Lines,
		funcIndex:        make(map[string]int, len(e.Funcs)),
	}
	for i := range p.Funcs {
		p.funcIndex[p.Funcs[i].Name] = i
	}
	return p
}
