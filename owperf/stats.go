package main

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
)

// Metric and unit grammar shared with BENCHMARK.json.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// median returns the middle value (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder is the percentiles the tail is chosen from.
var tailLadder = []float64{99.99, 99.9, 99, 90}

// tail returns the highest percentile of the ladder p90, p99, p99.9,
// p99.99 that has at least ten samples beyond it, with that percentile
// and the sample count. Below 100 samples no ladder percentile does,
// and the tail is the maximum (percentile 100). The value is the
// nearest-rank percentile.
func tail(xs []float64) (value, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := sorted(xs)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // tolerate p/100 rounding up
		if n-rank >= 10 {
			return s[rank-1], p, n
		}
	}
	return s[n-1], 100, n
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// tally counts attempted and failed operations. A failure is any error:
// a transport error, a timeout, a non-200 response (429 and 5xx
// included), or an output that does not match its pinned golden.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	rejected  int // 429 and 503 responses, a subset of failed
	first     error
}

// record counts one attempted operation and reports whether it
// succeeded.
func (t *tally) record(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		var se *statusError
		if errors.As(err, &se) && (se.Code == 429 || se.Code == 503) {
			t.rejected++
		}
		if t.first == nil {
			t.first = err
		}
	}
	return err == nil
}

func (t *tally) counts() (attempted, failed int, first error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed, t.first
}

// rejections is the number of operations the service refused with 429
// or 503.
func (t *tally) rejections() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rejected
}

// errorRate is failed divided by attempted.
func (t *tally) errorRate() float64 {
	a, f, _ := t.counts()
	return ratio(float64(f), float64(a))
}

// statusError is a non-200 HTTP response.
type statusError struct {
	Op   string
	Code int
	Body string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("%s: HTTP %d: %s", e.Op, e.Code, e.Body)
}

// mismatchError is an output that differs from its pinned golden.
type mismatchError struct {
	Key, Field string
	Got, Want  any
}

func (e *mismatchError) Error() string {
	return fmt.Sprintf("%s: %s = %v, pinned %v", e.Key, e.Field, e.Got, e.Want)
}
