// Command lockd-bench is the repository's performance benchmark: it
// generates each named workload from a seed, starts an in-process lockd on
// loopback TCP, drives it closed-loop from min(nproc, 2) clients for one
// sustained window, checks the server's outputs, and prints every metric
// by name with its unit. README.md in this directory says what the
// workloads and metrics are and why.
//
//	go run . [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-repeat N]
//	go run . -compare A.json B.json
//
// With one -workload the last line of standard output is the result as
// one JSON object: the end-to-end metrics with -trace 0, the per-layer
// metrics of the traced run with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps and numbers are passed in
	}
	return b
}

// metricValues is one metric of one workload across the repeats.
type metricValues struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Samples   int                     `json:"samples"`
	Metrics   map[string]metricValues `json:"metrics"`
}

// resultFile is what a run writes under -out and -compare reads.
type resultFile struct {
	Stamp     map[string]any            `json:"stamp"`
	Workloads map[string]workloadResult `json:"workloads"`
}

// readFirstLine returns the first line of a file, or "unknown".
func readFirstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

// stampOf records what a result depends on besides the code.
func stampOf(o runOpts, traced bool, repeat int) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"seed":         o.seed,
		"commit":       commit,
		"go":           runtime.Version(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"kernel":       readFirstLine("/proc/sys/kernel/osrelease"),
		"cpu_governor": readFirstLine("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
		"clients":      o.clients,
		"lifetimes":    lifetimes,
		"warmup_s":     o.warmup.Seconds(),
		"window_s":     o.window.Seconds(),
		"traced":       traced,
		"repeat":       repeat,
		"time":         time.Now().UTC().Format(time.RFC3339),
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lockd-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "the only input to workload generation")
	seconds := fs.Int("seconds", 15, "measured time per run in seconds, split evenly over the run's three server lifetimes")
	trace := fs.Int("trace", 0, "1 = the traced run (per-layer metrics), 0 = the end-to-end run")
	warmup := fs.Duration("warmup", time.Second, "warm-up before each window")
	window := fs.Duration("window", 0, "length of each lifetime's window (default: a third of -seconds)")
	repeat := fs.Int("repeat", 1, "runs per workload; medians and quartiles are reported")
	compare := fs.Bool("compare", false, "compare two result files: -compare BASE.json CHANGE.json")
	outDir := fs.String("out", "out", "directory for result files, traces and the durable workload's data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: lockd-bench -compare BASE.json CHANGE.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "lockd-bench: bad arguments; see -h")
		return 2
	}

	traced := *trace == 1
	o := runOpts{seed: *seed, clients: min(runtime.NumCPU(), 2), outDir: *outDir, warmup: *warmup, window: *window}
	if o.window == 0 {
		o.window = time.Duration(*seconds) * time.Second / lifetimes
	}
	if o.window <= 0 || o.warmup < 0 {
		fmt.Fprintln(stderr, "lockd-bench: the window must be longer than 0 and the warm-up not negative")
		return 2
	}
	defs := workloads
	if *workload != "all" {
		def, ok := workloadByName(*workload)
		if !ok {
			fmt.Fprintf(stderr, "lockd-bench: unknown workload %q\n", *workload)
			return 2
		}
		defs = []workloadDef{def}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "lockd-bench:", err)
		return 1
	}

	table, mode := endToEnd, "e2e"
	if traced {
		table, mode = perLayer, "trace"
	}
	file := resultFile{Stamp: stampOf(o, traced, *repeat), Workloads: make(map[string]workloadResult)}
	fmt.Fprintf(stdout, "# lockd-bench %s: closed loop, %d clients, %d lifetimes of warm-up %v + window %v, seed %d, repeat %d\n",
		mode, o.clients, lifetimes, o.warmup, o.window, o.seed, *repeat)
	for _, def := range defs {
		wr := workloadResult{Metrics: make(map[string]metricValues)}
		var last *runResult
		for rep := 0; rep < *repeat; rep++ {
			var res *runResult
			var err error
			if traced {
				res, err = runTraced(def, o, file.Stamp)
			} else {
				res, err = runEndToEnd(def, o)
			}
			if err != nil {
				fmt.Fprintf(stderr, "lockd-bench: %s: check failed: %v\n", def.Name, err)
				return 1
			}
			for _, d := range table {
				mv := wr.Metrics[d.Name]
				mv.Unit = d.Unit
				mv.Values = append(mv.Values, res.Metrics[d.Name])
				wr.Metrics[d.Name] = mv
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			wr.Samples += res.Samples
			last = res
		}
		for _, d := range table {
			mv := wr.Metrics[d.Name]
			mv.Q1, mv.Median, mv.Q3 = quartiles(mv.Values)
			wr.Metrics[d.Name] = mv
			fmt.Fprintf(stdout, "%-20s %-36s %14.4f %-6s", def.Name, d.Name, mv.Median, d.Unit)
			if *repeat > 1 {
				fmt.Fprintf(stdout, " q1 %.4f q3 %.4f", mv.Q1, mv.Q3)
			}
			fmt.Fprintln(stdout)
		}
		if !traced {
			fmt.Fprintf(stdout, "%-20s %-36s %14.6f %-6s (%d of %d attempted)\n", def.Name, "failed_share",
				float64(wr.Failed)/float64(max(wr.Attempted, 1)), "ratio", wr.Failed, wr.Attempted)
			fmt.Fprintf(stdout, "%-20s highest percentile with >= %d samples beyond it: %s = %.4f ms of %d samples (last run)\n",
				def.Name, tailSupport, last.Tail, last.TailMs, last.Samples)
		}
		if last.FailedErr != "" {
			fmt.Fprintf(stdout, "%-20s a transaction failed: %s\n", def.Name, last.FailedErr)
		}
		file.Workloads[def.Name] = wr
	}
	path := filepath.Join(o.outDir, "result-"+mode+".json")
	b, _ := json.MarshalIndent(file, "", " ")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "lockd-bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# checks passed: drain verdict, commit accounting, restore; result file %s\n", path)

	if len(defs) == 1 {
		// The machine-readable result line, last on standard output.
		wr := file.Workloads[defs[0].Name]
		type value struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		vals := make(map[string]value)
		for _, d := range table {
			vals[d.Name] = value{wr.Metrics[d.Name].Median, d.Unit}
		}
		fmt.Fprintf(stdout, "%s\n", mustJSON(map[string]any{
			"correct": true, "attempted": max(wr.Attempted, 1), "failed": wr.Failed, "metrics": vals,
		}))
	}
	return 0
}

// compareFiles applies the end-to-end bounds to two result files and
// prints one row per workload and metric:
//
//	ok          the change's median is within the bound of the base's;
//	worse       it is worse by more than the bound;
//	unresolved  either side's quartile distance is wider than the bound, so
//	            the runs cannot tell.
//
// It exits 1 if any row is worse.
func compareFiles(basePath, changePath string, stdout, stderr io.Writer) int {
	var base, change resultFile
	for path, into := range map[string]*resultFile{basePath: &base, changePath: &change} {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, into)
		}
		if err != nil {
			fmt.Fprintf(stderr, "lockd-bench: %s: %v\n", path, err)
			return 2
		}
	}
	spread := func(mv metricValues) float64 {
		if mv.Median == 0 {
			return 0
		}
		return (mv.Q3 - mv.Q1) / mv.Median
	}
	worse := 0
	fmt.Fprintf(stdout, "%-20s %-16s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "base", "change", "change%", "bound%", "spread%", "verdict")
	for _, def := range workloads {
		bw, ok1 := base.Workloads[def.Name]
		cw, ok2 := change.Workloads[def.Name]
		if !ok1 || !ok2 {
			continue
		}
		for _, d := range endToEnd {
			b, c := bw.Metrics[d.Name], cw.Metrics[d.Name]
			if len(b.Values) == 0 || len(c.Values) == 0 || b.Median == 0 {
				continue
			}
			// delta > 0 means the change is worse.
			delta := (c.Median - b.Median) / b.Median
			if d.Better == "higher" {
				delta = -delta
			}
			sp := max(spread(b), spread(c))
			verdict := "ok"
			switch {
			case sp > d.Bound:
				verdict = "unresolved"
			case delta > d.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(stdout, "%-20s %-16s %14.4f %14.4f %+9.2f %7.1f %8.2f  %s\n",
				def.Name, d.Name, b.Median, c.Median, 100*(c.Median-b.Median)/b.Median, 100*d.Bound, 100*sp, verdict)
		}
		if cw.Failed > bw.Failed {
			fmt.Fprintf(stdout, "%-20s %-16s %14d %14d %9s %7s %8s  worse\n", def.Name, "failed", bw.Failed, cw.Failed, "", "0", "")
			worse++
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}
