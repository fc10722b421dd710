// Command lockbench runs the quantitative experiment suite and prints the
// tables recorded in EXPERIMENTS.md:
//
//	E6 — differential validation of Theorem 1 (canonical vs brute force)
//	E7 — policy safety on conformant workloads (Theorems 2–4)
//	E8 — throughput/wait/abort vs multiprogramming level ([CHMS94] substitute)
//	E9 — decision-cost scaling of the two deciders
//	E10 — the naive shared/exclusive DDAG extension is unsafe (machine-found)
//	E11 — ablation: early lock release vs hold-to-end on fixed workloads
//	E12 — ablation: shared-mode readers vs exclusive-only readers
//	E13 — multi-core scaling of the sharded lock manager and the
//	      goroutine transaction runtime
//	E14 — abort-heavy recovery scaling: checkpointed suffix replay vs
//	      naive full replay
//	E15 — gate scaling: footprint-striped vs serialized policy admission
//	      on disjoint and Zipf-skewed workloads
//	E16 — lockd end-to-end: N concurrent pkg/client clients against a
//	      lockd server (in-memory loopback by default; -net targets a
//	      running server — the network mode the CI smoke uses), in each
//	      transport mode of -mode (step, pipeline, run)
//	E17 — partitioned engines: commits/s vs -partitions x -clients on
//	      partition-local-heavy and cross-partition-heavy body mixes
//	E18 — chaos corpus: every -scenario of the workload corpus x policy
//	      x partitions, over TCP through the internal/chaos fault proxy
//	      (kill/delay/stall; -chaos=false for the fault-free control),
//	      asserting the serializability verdict and commit accounting
//	E19 — kill/restart durability: the real lockd binary with -data-dir
//	      and -fsync, SIGKILLed mid-burst and restarted over the same
//	      store; every -scenario x partitions, asserting the crash
//	      accounting bound confirmed <= recovered <= confirmed+unknown
//	      and that at least one pre-kill session resumes and commits
//
// Usage:
//
//	lockbench [-seed N] [-systems N] [-per-policy N] [-shards 1,4,16]
//	          [-goroutines 1,4,8] [-stripes 4,16] [-clients 4,16]
//	          [-partitions 1,2,4,8] [-procs 1,4] [-net HOST:PORT]
//	          [-mode step,pipeline,run] [-scenario all] [-chaos]
//	          [-bench-json DIR]
//	          [-e14-sizes 1000,2000,4000,8000] [e6|e7|...|e19]...
//
// With -bench-json DIR, each measured experiment among E13–E19
// additionally writes DIR/BENCH_<EXP>.json — the machine-readable rows
// plus environment metadata (Go version, cores, GOMAXPROCS, best-of
// policy) for regression diffing across commits; .github/workflows
// ci.yml's bench job diffs them against the committed baselines with
// cmd/benchdiff.
//
// With no experiment arguments the full suite runs. Output is
// deterministic for a fixed seed (timing columns excepted; E13–E17's
// runtime sections measure wall-clock behavior and are inherently
// machine-dependent; E14's core replay counts are deterministic).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"locksafe/internal/experiments"
	"locksafe/internal/workload"
)

// intList parses a comma-separated list of positive ints.
func intList(name, s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("lockbench: -%s wants positive ints, got %q", name, s)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	seed := flag.Int64("seed", 1, "random seed")
	systems := flag.Int("systems", 250, "random systems for E6")
	perPolicy := flag.Int("per-policy", 40, "systems per policy for E7")
	shards := flag.String("shards", "1,4,16", "shard counts for E13 (comma-separated)")
	goroutines := flag.String("goroutines", "1,4,8", "goroutine counts for E13 (comma-separated)")
	e14Sizes := flag.String("e14-sizes", "1000,2000,4000,8000", "log sizes for E14 (comma-separated event counts)")
	stripes := flag.String("stripes", "4,16", "gate stripe counts for E15 and E16 (comma-separated)")
	clients := flag.String("clients", "4,16", "concurrent client counts for E16 and E17 (comma-separated)")
	partitions := flag.String("partitions", "1,2,4,8", "partition counts for E17 (comma-separated)")
	procs := flag.String("procs", "", "GOMAXPROCS sweep for E17 (comma-separated; empty = the fixed default 1,4)")
	netAddr := flag.String("net", "", "E16 network mode: address of a running lockd (empty = in-memory loopback server per cell)")
	mode := flag.String("mode", "step,pipeline,run", "E16 transport modes to measure (comma-separated: step, pipeline, run)")
	scenario := flag.String("scenario", "all", "E18/E19 scenario names from the workload corpus (comma-separated, or \"all\")")
	chaosOn := flag.Bool("chaos", true, "E18: inject kill/delay/stall faults (false = fault-free control through a transparent proxy)")
	benchJSON := flag.String("bench-json", "", "directory to write machine-readable bench artifacts into (E13-E18 write BENCH_<EXP>.json)")
	flag.Parse()

	shardCounts, err := intList("shards", *shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	gorCounts, err := intList("goroutines", *goroutines)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sizeCounts, err := intList("e14-sizes", *e14Sizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stripeCounts, err := intList("stripes", *stripes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	clientCounts, err := intList("clients", *clients)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	partCounts, err := intList("partitions", *partitions)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var procCounts []int // nil = E17's fixed default {1, 4} sweep
	if strings.TrimSpace(*procs) != "" {
		procCounts, err = intList("procs", *procs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	var modes []string
	for _, m := range strings.Split(*mode, ",") {
		m = strings.TrimSpace(m)
		if !experiments.E16ValidMode(m) {
			fmt.Fprintf(os.Stderr, "lockbench: -mode wants a comma-separated subset of step,pipeline,run, got %q\n", *mode)
			os.Exit(2)
		}
		modes = append(modes, m)
	}
	var scenarios []string // nil = the whole corpus
	if s := strings.TrimSpace(*scenario); s != "" && s != "all" {
		for _, name := range strings.Split(s, ",") {
			name = strings.TrimSpace(name)
			if _, ok := workload.ScenarioByName(name); !ok {
				fmt.Fprintf(os.Stderr, "lockbench: -scenario %q is not in the corpus (want a subset of %s, or \"all\")\n",
					name, strings.Join(workload.ScenarioNames(), ","))
				os.Exit(2)
			}
			scenarios = append(scenarios, name)
		}
	}

	// writeBench writes one machine-readable artifact when -bench-json
	// is set; failures are reported but do not fail the run.
	writeBench := func(exp string, bestOf int, rows any) {
		if *benchJSON == "" {
			return
		}
		if path, werr := experiments.WriteBench(*benchJSON, exp, *seed, bestOf, rows); werr != nil {
			fmt.Fprintf(os.Stderr, "lockbench: bench artifact: %v\n", werr)
		} else {
			fmt.Printf("bench artifact: %s\n", path)
		}
	}

	runs := map[string]func() experiments.Report{
		"e6":  func() experiments.Report { return experiments.E6Differential(*systems, *seed) },
		"e7":  func() experiments.Report { return experiments.E7PolicySafety(*perPolicy, *seed) },
		"e8":  func() experiments.Report { _, r := experiments.E8Performance(*seed); return r },
		"e9":  func() experiments.Report { return experiments.E9Scalability(*seed) },
		"e10": func() experiments.Report { return experiments.E10SharedDDAG(60, *seed) },
		"e11": func() experiments.Report { _, r := experiments.E11Ablation(*seed); return r },
		"e12": func() experiments.Report { return experiments.E12SharedReaders(*seed) },
		"e13": func() experiments.Report {
			rows, r := experiments.E13Scaling(*seed, shardCounts, gorCounts)
			writeBench("E13", 1, rows)
			return r
		},
		"e14": func() experiments.Report {
			rows, r := experiments.E14Recovery(*seed, sizeCounts)
			writeBench("E14", 1, rows)
			return r
		},
		"e15": func() experiments.Report {
			rows, r := experiments.E15GateScaling(*seed, stripeCounts, gorCounts)
			writeBench("E15", experiments.E15Reps, rows)
			return r
		},
		"e16": func() experiments.Report {
			rows, r := experiments.E16NetThroughput(*seed, stripeCounts, clientCounts, modes, *netAddr)
			bestOf := experiments.E16Reps
			if *netAddr != "" {
				bestOf = 1
			}
			writeBench("E16", bestOf, rows)
			return r
		},
		"e17": func() experiments.Report {
			rows, r := experiments.E17PartitionScaling(*seed, partCounts, clientCounts, procCounts)
			writeBench("E17", experiments.E17Reps, rows)
			return r
		},
		"e18": func() experiments.Report {
			// The chaos grid fixes its own partition axis ({1,4}) rather
			// than borrowing -partitions: the cell count is scenarios x
			// policies x partitions and chaos cells are wall-clock heavy.
			rows, r := experiments.E18ChaosCorpus(*seed, scenarios, nil, *chaosOn, workload.ScenarioConfig{})
			writeBench("E18", 1, rows)
			return r
		},
		"e19": func() experiments.Report {
			// Like E18, the durability grid fixes its own partition axis
			// ({1,4}): each cell builds on a real process lifecycle (start,
			// SIGKILL, restart, drain) and is wall-clock heavy.
			rows, r := experiments.E19KillRestart(*seed, scenarios, nil, workload.ScenarioConfig{})
			writeBench("E19", 1, rows)
			return r
		},
	}
	order := []string{"e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15", "e16", "e17", "e18", "e19"}

	want := flag.Args()
	if len(want) == 0 {
		want = order
	}
	exit := 0
	for _, name := range want {
		f, ok := runs[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "lockbench: unknown experiment %q (want e6..e19)\n", name)
			os.Exit(2)
		}
		r := f()
		fmt.Println(r.String())
		if r.Failed != "" {
			exit = 1
		}
	}
	os.Exit(exit)
}
