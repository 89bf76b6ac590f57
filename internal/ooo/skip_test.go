package ooo

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"optiwise/internal/asm"
	"optiwise/internal/progen"
	"optiwise/internal/program"
	"optiwise/internal/workloads"
)

// memKernel stresses every event source the dead-cycle skip has to
// respect: stores striding past every cache level fill the store buffer,
// dependent loads miss to memory, a divide chain keeps the non-pipelined
// units busy, data-dependent branches mispredict, and syscalls serialize
// the front end.
const memKernel = `
.func main
main:
    addi sp, sp, -16
    st ra, 8(sp)
    li s10, 0x100000000000
    li a0, 0x100000000000
    li t0, 0x400000
    add a0, a0, t0
    li a7, 214
    syscall
    li s1, 600
    li s2, 0
    li s3, 7
    fli f1, 3.5
    fli f2, 1.25
loop:
    slli t1, s2, 12
    add t1, t1, s10
    st s1, 0(t1)
    st s3, 64(t1)
    ld t2, 0(t1)
    ld t3, 4096(t1)
    add s3, s3, t3
    div t4, s1, s3
    div t4, t4, s3
    fdiv f3, f1, f2
    fadd f1, f1, f3
    andi t5, t4, 1
    beqz t5, skip
    addi s2, s2, 3
skip:
    addi s2, s2, 1
    andi s2, s2, 1023
    andi t6, s1, 63
    bnez t6, nosys
    li a7, 1000
    syscall
nosys:
    addi s1, s1, -1
    bnez s1, loop
    ld ra, 8(sp)
    addi sp, sp, 16
    andi a0, s3, 255
    li a7, 93
    syscall
.endfunc
`

// runRecord is everything observable from one simulation.
type runRecord struct {
	Stats     Stats
	Err       string
	Samples   []Sample
	True      map[uint64]uint64
	Intervals []Interval
	Marks     []WindowMark
	Trace     []TimelineEntry
	Exit      int64
	Output    string
}

// skipCase is one option set of the equivalence matrix. cancelAfter > 0
// cancels the run's context from inside the cancelAfter-th sample
// callback, so the cancellation lands at a deterministic simulated point
// and the next poll must observe it at the same cycle in both clocks.
type skipCase struct {
	name        string
	opts        Options
	maxCycles   uint64
	cancelAfter int
}

func skipCases() []skipCase {
	return []skipCase{
		{name: "skid+all-observers", opts: Options{
			SamplePeriod: 777, InterruptCost: 25, TrueAttribution: true,
			IntervalCycles: 1000, WindowCycles: 3000, TraceLimit: 200,
		}},
		{name: "precise+jitter", opts: Options{
			SamplePeriod: 500, SampleJitter: true, SampleMode: SamplePrecise,
			InterruptCost: 40, TrueAttribution: true, IntervalCycles: 777,
		}},
		{name: "unsampled", opts: Options{TrueAttribution: true, WindowCycles: 5000}},
		{name: "cycle-limit", opts: Options{
			SamplePeriod: 300, InterruptCost: 25, TrueAttribution: true, IntervalCycles: 500,
		}, maxCycles: 12345},
		{name: "cancel", opts: Options{
			SamplePeriod: 300, InterruptCost: 25, TrueAttribution: true, IntervalCycles: 500,
		}, cancelAfter: 5},
	}
}

// runClock simulates p once, with the per-cycle reference clock when
// step is set and the event-driven clock otherwise.
func runClock(p *program.Program, cfg Config, c skipCase, step bool) (runRecord, uint64) {
	var rec runRecord
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := c.opts
	opts.RandSeed = 7
	opts.OnSample = func(smp Sample) {
		rec.Samples = append(rec.Samples, smp)
		if len(rec.Samples) == c.cancelAfter {
			cancel()
		}
	}
	if opts.WindowCycles > 0 {
		opts.OnWindow = func(m WindowMark) { rec.Marks = append(rec.Marks, m) }
	}
	sim := New(cfg, program.Load(p, program.LoadOptions{}), opts)
	sim.step = step
	var err error
	if c.cancelAfter > 0 {
		rec.Stats, err = sim.RunContext(ctx, c.maxCycles)
	} else {
		rec.Stats, err = sim.Run(c.maxCycles)
	}
	if err != nil {
		rec.Err = err.Error()
	}
	rec.True = sim.TrueCycles()
	rec.Intervals = sim.Intervals()
	rec.Trace = sim.Trace()
	rec.Exit = sim.Arch().ExitCode
	rec.Output = string(sim.Arch().Output)
	return rec, sim.SkippedCycles()
}

// checkSkipVsStep runs p under both clocks and reports any observable
// difference. It returns the reference run and the cycles the
// event-driven run skipped.
func checkSkipVsStep(t *testing.T, name string, p *program.Program, cfg Config, c skipCase) (runRecord, uint64) {
	t.Helper()
	want, stepSkipped := runClock(p, cfg, c, true)
	got, skipped := runClock(p, cfg, c, false)
	if stepSkipped != 0 {
		t.Errorf("%s: reference clock skipped %d cycles", name, stepSkipped)
	}
	if c.cancelAfter == 0 && c.maxCycles == 0 && want.Err != "" {
		t.Errorf("%s: %s", name, want.Err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: skip and step clocks diverge:\n%s", name, describeDiff(got, want))
	}
	return want, skipped
}

func describeDiff(got, want runRecord) string {
	out := ""
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			f := gv.Type().Field(i).Name
			switch f {
			case "Stats", "Err", "Exit":
				out += fmt.Sprintf("  %s: skip %v, step %v\n", f,
					gv.Field(i).Interface(), wv.Field(i).Interface())
			default:
				out += fmt.Sprintf("  %s differs\n", f)
			}
		}
	}
	return out
}

func assembleSkip(t testing.TB, name, src string) *program.Program {
	t.Helper()
	p, err := asm.Assemble(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p
}

// TestSkipVsStep holds the event-driven clock to the per-cycle reference
// on generated programs and on the micro-benchmarks behind the paper's
// sampling figures: identical Stats, sample stream, ground-truth
// attribution, interval telemetry, window marks, pipeline trace, exit
// code and output — under both machine models, with every observer on,
// at a cycle limit, and across a mid-run cancellation.
func TestSkipVsStep(t *testing.T) {
	// The figure micro-benchmarks run millions of cycles of one steady
	// loop; a cycle limit keeps the reference clock's share of tier-1
	// small while still covering that loop thousands of times.
	type skipProg struct {
		src   string
		limit uint64
	}
	progs := map[string]skipProg{
		"memkernel": {src: memKernel},
		"fig2":      {src: workloads.Fig2(), limit: 60_000},
		"fig8":      {src: workloads.Fig8(), limit: 200_000},
		"fig9":      {src: workloads.Fig9(), limit: 100_000},
	}
	for seed := int64(0); seed < 6; seed++ {
		progs[fmt.Sprintf("progen%d", seed)] = skipProg{src: progen.Generate(progen.DefaultConfig(seed))}
	}
	var skipped, canceled uint64
	for name, prog := range progs {
		p := assembleSkip(t, name, prog.src)
		for _, cfg := range []Config{XeonW2195(), NeoverseN1()} {
			for _, c := range skipCases() {
				if c.maxCycles == 0 {
					c.maxCycles = prog.limit
				}
				rec, n := checkSkipVsStep(t, name+"/"+cfg.Name+"/"+c.name, p, cfg, c)
				skipped += n
				if strings.Contains(rec.Err, "canceled") {
					canceled++
				}
			}
		}
	}
	if skipped == 0 {
		t.Error("no run skipped a single cycle: the equivalence check proves nothing")
	}
	if canceled == 0 {
		t.Error("no run observed its mid-run cancellation")
	}
}

// FuzzSkipVsStep explores program shapes and option mixes for any
// divergence between the event-driven clock and the per-cycle reference.
func FuzzSkipVsStep(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(3), uint8(6), uint8(5), uint16(777), uint8(0))
	f.Add(int64(42), uint8(2), uint8(4), uint8(8), uint8(9), uint16(300), uint8(0xff))
	f.Fuzz(func(t *testing.T, seed int64, funcs, blocks, ops, trips uint8, period uint16, flags uint8) {
		src := progen.Generate(progen.Config{
			Funcs:        1 + int(funcs%5),
			BlocksPerFn:  1 + int(blocks%5),
			OpsPerBlock:  1 + int(ops%10),
			MaxLoopTrips: 1 + int(trips%10),
			Seed:         seed,
		})
		p := assembleSkip(t, "fuzz", src)
		cfg := XeonW2195()
		if flags&1 != 0 {
			cfg = NeoverseN1()
		}
		c := skipCase{name: "fuzz", opts: Options{
			SamplePeriod:    uint64(period % 2048),
			SampleJitter:    flags&2 != 0,
			InterruptCost:   uint64(flags>>5) * 10,
			TrueAttribution: flags&8 != 0,
			TraceLimit:      64,
		}}
		if flags&4 != 0 {
			c.opts.SampleMode = SamplePrecise
		}
		if flags&16 != 0 {
			c.opts.IntervalCycles = 1 + uint64(period%997)
			c.opts.WindowCycles = 1 + uint64(period%1499)
		}
		if flags&32 != 0 && c.opts.SamplePeriod > 0 {
			c.cancelAfter = 1 + int(seed&3)
		}
		if flags&64 != 0 {
			c.maxCycles = 1 + uint64(period)*4
		}
		checkSkipVsStep(t, "fuzz", p, cfg, c)
	})
}
