package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// recorder keeps the traced run's spans in memory and writes them out
// as Chrome-trace JSON when the run ends. Spans are recorded by the
// benchmark around its calls into each layer; the program itself is not
// instrumented. A nil recorder records nothing.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

type span struct {
	Name   string
	Parent int // index of the causing span, -1 for a root
	Lane   int // Chrome-trace thread: the client or caller
	Start  time.Time
	End    time.Time
	Args   map[string]any
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its index.
func (r *recorder) add(name string, parent, lane int, start, end time.Time, args map[string]any) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Lane: lane, Start: start, End: end, Args: args})
	return len(r.spans) - 1
}

// open records a span whose end is set later by close; it returns the
// span's index (for parenting children) or -1 on a nil recorder.
func (r *recorder) open(name string, parent, lane int) int {
	now := time.Now()
	return r.add(name, parent, lane, now, now, nil)
}

func (r *recorder) close(i int, args map[string]any) {
	if r == nil || i < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = time.Now()
	r.spans[i].Args = args
}

// writeChrome writes the spans as a Chrome-trace (Perfetto) JSON file.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	r.mu.Lock()
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		args := map[string]any{"span": i, "parent": s.Parent}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane, Args: args,
			Ts:  float64(s.Start.Sub(r.epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
		})
	}
	r.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
