package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"optiwise"
)

// golden pins one (workload, program, options) result: digests of the
// JSON export and the text report, the export's totals, and the exact
// counts of the sampling pass.
type golden struct {
	JSONSHA256   string `json:"json_sha256"`
	ReportSHA256 string `json:"report_sha256"`
	TotalCycles  uint64 `json:"total_cycles"`
	TotalInsts   uint64 `json:"total_insts"`
	TotalSamples uint64 `json:"total_samples"`
	SimCycles    uint64 `json:"sim_cycles"`
	SimInsts     uint64 `json:"sim_insts"`
	SimSamples   uint64 `json:"sim_samples"`
}

//go:embed goldens.json
var goldensJSON []byte

// goldens maps "<workload>/<program>" to its pinned result.
var goldens = func() map[string]golden {
	m := map[string]golden{}
	if err := json.Unmarshal(goldensJSON, &m); err != nil {
		panic("owperf: goldens.json: " + err.Error())
	}
	return m
}()

func goldenKey(workload, program string) string { return workload + "/" + program }

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// lookupGolden returns the pinned result for key, or an error naming the
// missing key (an unpinned output can never count as correct).
func lookupGolden(key string) (golden, error) {
	g, ok := goldens[key]
	if !ok {
		return g, &mismatchError{Key: key, Field: "golden", Got: "none", Want: "pinned entry"}
	}
	return g, nil
}

// checkJSON compares an exported JSON report with the pinned digest.
func checkJSON(key string, export []byte) error {
	g, err := lookupGolden(key)
	if err != nil {
		return err
	}
	if got := sha(export); got != g.JSONSHA256 {
		return &mismatchError{Key: key, Field: "json_sha256", Got: got, Want: g.JSONSHA256}
	}
	return nil
}

// rendered is one result rendered the way every timed pipeline
// operation renders it.
type rendered struct {
	JSON, Report []byte
}

// render writes res as the JSON export and the full text report.
func render(res *optiwise.Result) (rendered, error) {
	var js, txt bytes.Buffer
	if err := res.WriteJSON(&js); err != nil {
		return rendered{}, fmt.Errorf("render json: %w", err)
	}
	if err := optiwise.WriteReport(&txt, res); err != nil {
		return rendered{}, fmt.Errorf("render report: %w", err)
	}
	return rendered{JSON: js.Bytes(), Report: txt.Bytes()}, nil
}

// checkResult compares a rendered result and its totals with the
// pinned golden.
func checkResult(key string, res *optiwise.Result, r rendered) error {
	g, err := lookupGolden(key)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		field     string
		got, want any
	}{
		{"json_sha256", sha(r.JSON), g.JSONSHA256},
		{"report_sha256", sha(r.Report), g.ReportSHA256},
		{"total_cycles", res.TotalCycles, g.TotalCycles},
		{"total_insts", res.TotalInsts, g.TotalInsts},
		{"total_samples", res.TotalSamples, g.TotalSamples},
	} {
		if c.got != c.want {
			return &mismatchError{Key: key, Field: c.field, Got: c.got, Want: c.want}
		}
	}
	return nil
}

// checkSimCounts compares a sampling pass's exact counts with the pin.
func checkSimCounts(key string, cycles, insts, samples uint64) error {
	g, err := lookupGolden(key)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		field     string
		got, want uint64
	}{
		{"sim_cycles", cycles, g.SimCycles},
		{"sim_insts", insts, g.SimInsts},
		{"sim_samples", samples, g.SimSamples},
	} {
		if c.got != c.want {
			return &mismatchError{Key: key, Field: c.field, Got: c.got, Want: c.want}
		}
	}
	return nil
}

// pin recomputes every golden from the current code and writes them to
// path. Run it only when a change is meant to alter profiles.
func pin(path string) error {
	m := map[string]golden{}
	add := func(workload string, p *prepared, opts optiwise.Options) error {
		res, err := optiwise.Profile(p.prog, opts)
		if err != nil {
			return fmt.Errorf("%s: profile: %w", p.name, err)
		}
		r, err := render(res)
		if err != nil {
			return err
		}
		_, st, err := optiwise.SampleOnly(p.prog, opts)
		if err != nil {
			return fmt.Errorf("%s: sample: %w", p.name, err)
		}
		m[goldenKey(workload, p.name)] = golden{
			JSONSHA256: sha(r.JSON), ReportSHA256: sha(r.Report),
			TotalCycles: res.TotalCycles, TotalInsts: res.TotalInsts, TotalSamples: res.TotalSamples,
			SimCycles: st.Cycles, SimInsts: st.Instructions, SimSamples: st.Samples,
		}
		return nil
	}
	for name, w := range pipelines {
		progs, err := prepare(w.programs, w.scale)
		if err != nil {
			return err
		}
		for _, p := range progs {
			if err := add(name, p, w.options()); err != nil {
				return err
			}
		}
	}
	progs, err := prepare(servicePool, serviceScale)
	if err != nil {
		return err
	}
	for _, p := range progs {
		if err := add(serviceGoldens, p, optiwise.Options{RandSeed: 1}); err != nil {
			return err
		}
		// The service draws fresh keys by varying rand_seed; the suite
		// programs never call SysRand, so every seed must give the same
		// profile. Refuse to pin a pool where that does not hold.
		res, err := optiwise.Profile(p.prog, optiwise.Options{RandSeed: 977})
		if err != nil {
			return fmt.Errorf("%s: profile: %w", p.name, err)
		}
		r, err := render(res)
		if err != nil {
			return err
		}
		if sha(r.JSON) != m[goldenKey(serviceGoldens, p.name)].JSONSHA256 {
			return fmt.Errorf("%s: rand_seed changes the profile", p.name)
		}
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
