package sampler

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"optiwise/internal/asm"
	"optiwise/internal/ooo"
	"optiwise/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/suite_golden.json from the current simulator")

// goldenScale shrinks every suite program so the whole matrix (23
// programs × 2 machines × 2 sampling modes) simulates in seconds.
const goldenScale = 0.02

const goldenPath = "testdata/suite_golden.json"

// suiteGolden is one pinned sampling pass: the exact simulator Stats and
// the SHA-256 of the sample stream it delivered.
type suiteGolden struct {
	Cycles       uint64 `json:"cycles"`
	UserCycles   uint64 `json:"user_cycles"`
	Instructions uint64 `json:"instructions"`
	Mispredicts  uint64 `json:"mispredicts"`
	Branches     uint64 `json:"branches"`
	Samples      uint64 `json:"samples"`
	Stream       string `json:"stream_sha256"`
}

// streamDigest hashes every field of every record in delivery order.
func streamDigest(recs []Record) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, r := range recs {
		put(r.Offset)
		put(r.Weight)
		put(r.CacheMisses)
		put(r.Mispredicts)
		put(uint64(len(r.Stack)))
		for _, f := range r.Stack {
			put(f)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSuiteGolden pins the sampling pass of every suite program on both
// machine models, in plain skid mode and in precise mode with period
// jitter, against a checked-in table. Any change to simulated timing or
// sample delivery moves at least one entry; a speed-only change to the
// simulator must leave every entry untouched. Regenerate deliberately
// with `go test ./internal/sampler -run TestSuiteGolden -update`.
func TestSuiteGolden(t *testing.T) {
	machines := []ooo.Config{ooo.XeonW2195(), ooo.NeoverseN1()}
	modes := []struct {
		name string
		opts Options
	}{
		{"skid", Options{Period: 1000}},
		{"precise-jitter", Options{Period: 1000, Precise: true, Jitter: true}},
	}
	got := map[string]suiteGolden{}
	for _, spec := range workloads.Suite() {
		p, err := asm.Assemble(spec.Name, workloads.Generate(spec.Scale(goldenScale)))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for _, m := range machines {
			for _, mode := range modes {
				opts := mode.opts
				opts.InterruptCost = DefaultInterruptCost
				opts.RandSeed = 7
				prof, st, err := Run(m, p, opts)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", spec.Name, m.Name, mode.name, err)
				}
				got[fmt.Sprintf("%s/%s/%s", spec.Name, m.Name, mode.name)] = suiteGolden{
					Cycles: st.Cycles, UserCycles: st.UserCycles,
					Instructions: st.Instructions, Mispredicts: st.Mispredicts,
					Branches: st.Branches, Samples: st.Samples,
					Stream: streamDigest(prof.Records),
				}
			}
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]suiteGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden table has %d entries, run produced %d", len(want), len(got))
	}
	for key, g := range got {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: missing from %s", key, goldenPath)
			continue
		}
		if g != w {
			t.Errorf("%s:\n got  %+v\n want %+v", key, g, w)
		}
	}
}
