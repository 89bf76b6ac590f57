package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"optiwise"
)

const sharedSource = `
.module shared
.text
.func main
main:
    li s2, 300
loop:
    div t1, s2, s2
    addi s2, s2, -1
    bnez s2, loop
    li a0, 0
    li a7, 93
    syscall
.endfunc
`

func TestProgramTableSharesAssembly(t *testing.T) {
	var tab programTable
	a, err := tab.assemble("m", sharedSource)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tab.assemble("m", sharedSource)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical (module, source) assembled twice")
	}
	if c, err := tab.assemble("other", sharedSource); err != nil || c == a {
		t.Errorf("a different module must get its own program (err %v)", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := tab.assemble("m", "bogus instruction"); err == nil {
			t.Fatal("bad source assembled")
		}
	}
	// The table stays bounded and drops its oldest entry first.
	for i := 0; i < programSlots; i++ {
		if _, err := tab.assemble(fmt.Sprintf("m%d", i), sharedSource); err != nil {
			t.Fatal(err)
		}
	}
	if len(tab.progs) != programSlots {
		t.Errorf("table holds %d programs, want %d", len(tab.progs), programSlots)
	}
	if again, _ := tab.assemble("m", sharedSource); again == a {
		t.Error("oldest entry survived a full table's worth of newer ones")
	}
}

// TestSharedProgramConcurrentJobs runs two jobs on one shared Program at
// the same time; under -race it proves that simulation, instrumentation,
// combine and rendering only read an assembled program.
func TestSharedProgramConcurrentJobs(t *testing.T) {
	srv := New(Config{Workers: 2})
	srv.Start()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Distinct rand_seed values give distinct cache keys, so both
	// submissions execute instead of coalescing; the program never
	// calls SysRand, so both must produce the same report.
	ids := make([]string, 2)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(map[string]any{
				"module": "shared", "source": sharedSource, "wait": true,
				"options": map[string]any{"sample_period": 300, "rand_seed": i + 1},
			})
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var st JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Error(err)
				return
			}
			if st.State != StateDone || st.Cached || st.Coalesced {
				t.Errorf("job %d: %+v", i, st)
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	var reports [][]byte
	var progs []*optiwise.Program
	for _, id := range ids {
		j, ok := srv.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		j.mu.Lock()
		progs = append(progs, j.group.prog)
		j.mu.Unlock()
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/report?kind=json", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		reports = append(reports, data)
	}
	if progs[0] != progs[1] {
		t.Error("the two jobs did not share one assembled program")
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Error("jobs on a shared program produced different reports")
	}
}
