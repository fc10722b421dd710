package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"locksafe/internal/model"
)

// resultLine is the machine-readable last line of a single-workload run.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runShort runs one workload end to end with no warm-up and a 300ms
// window, so that the whole suite stays fast, and returns the human
// output and the parsed result line.
func runShort(t *testing.T, workload string, trace string) (string, resultLine) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", workload, "-trace", trace, "-warmup", "0", "-window", "300ms", "-out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s: exit %d: %s", workload, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", workload, err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	return stdout.String(), res
}

// checkPrinted asserts that exactly the table's metrics were reported,
// each with its unit, in the result line and by name in the text.
func checkPrinted(t *testing.T, workload, text string, res resultLine, table []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(table) {
		t.Errorf("%s: %d metrics reported, the table has %d", workload, len(res.Metrics), len(table))
	}
	for _, d := range table {
		got, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s missing from the result line", workload, d.Name)
			continue
		}
		if got.Unit != d.Unit {
			t.Errorf("%s: %s has unit %q, want %q", workload, d.Name, got.Unit, d.Unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("%s: %s = %v", workload, d.Name, got.Value)
		}
		if !strings.Contains(text, " "+d.Name+" ") {
			t.Errorf("%s: %s not printed by name", workload, d.Name)
		}
	}
}

func TestEndToEndRuns(t *testing.T) {
	for _, def := range workloads {
		text, res := runShort(t, def.Name, "0")
		checkPrinted(t, def.Name, text, res, endToEnd)
		for _, d := range endToEnd {
			if res.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", def.Name, d.Name, res.Metrics[d.Name].Value)
			}
		}
		if !strings.Contains(text, "failed_share") {
			t.Errorf("%s: failed_share not printed", def.Name)
		}
	}
}

func TestTracedRuns(t *testing.T) {
	for _, def := range workloads {
		text, res := runShort(t, def.Name, "1")
		checkPrinted(t, def.Name, text, res, perLayer)
		aborts := res.Metrics["runtime.abort_share"].Value
		switch def.Name {
		case "shuffle-abort":
			if aborts <= 0.05 {
				t.Errorf("shuffle-abort does not abort: runtime.abort_share = %v", aborts)
			}
			if res.Metrics["lockmgr.deadlocks_per_klock"].Value <= 0 {
				t.Errorf("shuffle-abort: the lock replay saw no deadlock")
			}
		case "zipf-step", "disjoint-run":
			if aborts != 0 {
				t.Errorf("%s aborts: runtime.abort_share = %v", def.Name, aborts)
			}
		case "churn-part2":
			if res.Metrics["policy.global_footprint_share"].Value <= 0 {
				t.Errorf("churn-part2: no event needed a drain")
			}
		}
		busy := res.Metrics["recovery.persist_busy_share"].Value
		if def.Durable != (busy > 0) {
			t.Errorf("%s: durable=%v but recovery.persist_busy_share = %v", def.Name, def.Durable, busy)
		}
	}
}

// TestScriptsWrap drives a client past the end of a two-body script: a
// run must keep working when commit rates outgrow scriptLen.
func TestScriptsWrap(t *testing.T) {
	for _, def := range workloads {
		o := runOpts{seed: 7, clients: 2, window: 200e6, outDir: t.TempDir()}
		r, err := setup(def, o, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		nop := func() {}
		win, err := runWindow(o, 2, r.loopback(), r.closeClients, nop, nop)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.drainAndCheck(win.confirmed(), win.failed(), true); err != nil {
			t.Errorf("%s: %v", def.Name, err)
		}
		if win.failed() != 0 || win.commits() <= 4 {
			t.Errorf("%s: %d commits, %d failed (%v)", def.Name, win.commits(), win.failed(), win.firstErr())
		}
	}
}

// scriptText renders generated scripts for comparison.
func scriptText(scripts [][]model.Txn) string {
	var b strings.Builder
	for _, script := range scripts {
		for _, tx := range script {
			b.WriteString(tx.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func TestGenerationIsSeeded(t *testing.T) {
	for _, def := range workloads {
		a, _ := def.generate(3, 2, 64)
		b, _ := def.generate(3, 2, 64)
		c, _ := def.generate(4, 2, 64)
		if scriptText(a) != scriptText(b) {
			t.Errorf("%s: the same seed gave different inputs", def.Name)
		}
		if strings.HasPrefix(def.Name, "disjoint") {
			continue // the disjoint bodies have no random part
		}
		if scriptText(a) == scriptText(c) {
			t.Errorf("%s: different seeds gave the same inputs", def.Name)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON holds BENCHMARK.json to the tables in this package:
// every metric and workload named there is reported here and the other
// way round, with the same units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the table %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the table %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) {
				t.Errorf("%s: bad metric name %q", kind, g.Name)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: bound of %s does not match the table's %v", kind, g.Name, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: %s has a bound", kind, g.Name)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd, true)
	same("per_layer", file.PerLayer, perLayer, false)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// = [3.5, 13.5, 31.0]
	q1, med, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
	if q1, med, q3 = quartiles([]float64{5}); q1 != 5 || med != 5 || q3 != 5 {
		t.Errorf("quartiles of one value = %v %v %v", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate, p99 []float64) string {
		mv := func(unit string, v []float64) metricValues {
			q1, med, q3 := quartiles(v)
			return metricValues{Unit: unit, Values: v, Q1: q1, Median: med, Q3: q3}
		}
		f := resultFile{Workloads: map[string]workloadResult{"zipf-step": {Metrics: map[string]metricValues{
			"commits_per_s": mv("1/s", rate), "commit_p99_ms": mv("ms", p99),
		}}}}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, mustJSON(f), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", []float64{100, 101, 102}, []float64{10, 10.1, 10.2})
	slower := write("slower.json", []float64{70, 71, 72}, []float64{10, 10.1, 10.2})
	noisy := write("noisy.json", []float64{100, 101, 102}, []float64{5, 10, 20})

	var out, errs bytes.Buffer
	if code := compareFiles(base, base, &out, &errs); code != 0 || strings.Contains(out.String(), "worse") {
		t.Errorf("base against itself: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(base, slower, &out, &errs); code != 1 || !regexp.MustCompile(`commits_per_s .* worse`).MatchString(out.String()) {
		t.Errorf("a 30%% slower change: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(base, noisy, &out, &errs); code != 0 || !regexp.MustCompile(`commit_p99_ms .* unresolved`).MatchString(out.String()) {
		t.Errorf("a noisy p99: exit %d\n%s", code, out.String())
	}
}
