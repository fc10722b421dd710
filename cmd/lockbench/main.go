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
//	E14 — abort-heavy recovery scaling: events re-verified per abort
//	      under checkpointed suffix replay vs naive full replay (counts,
//	      deterministic)
//	E16 — lockd transport smoke: N concurrent pkg/client clients against
//	      a lockd server (in-memory loopback by default; -net targets a
//	      running server — the network mode the CI smoke uses), in each
//	      transport mode of -mode (step, pipeline, run), asserting every
//	      transaction commits
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
//	lockbench [-seed N] [-systems N] [-per-policy N]
//	          [-e14-sizes 1000,2000,4000,8000] [-clients 4,16]
//	          [-net HOST:PORT] [-mode step,pipeline,run] [-scenario all]
//	          [-chaos] [e6|...|e12|e14|e16|e18|e19]...
//
// With no experiment arguments every experiment above runs. Output is
// deterministic for a fixed seed, except E16/E18/E19's abort and fault
// counts, which depend on real scheduling. No experiment reports speed:
// bash bench/run.sh is the benchmark.
package main

import (
	"flag"
	"fmt"
	"io"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments, streams and exit status made
// explicit: 0 when every requested experiment held, 1 when one failed,
// 2 on a usage error — reported before any experiment runs.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lockbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "random seed")
	systems := fs.Int("systems", 250, "random systems for E6")
	perPolicy := fs.Int("per-policy", 40, "systems per policy for E7")
	e14Sizes := fs.String("e14-sizes", "1000,2000,4000,8000", "log sizes for E14 (comma-separated event counts)")
	clients := fs.String("clients", "4,16", "concurrent client counts for E16 (comma-separated)")
	netAddr := fs.String("net", "", "E16 network mode: address of a running lockd (empty = in-memory loopback server per cell)")
	mode := fs.String("mode", "step,pipeline,run", "E16 transport modes to run (comma-separated: step, pipeline, run)")
	scenario := fs.String("scenario", "all", "E18/E19 scenario names from the workload corpus (comma-separated, or \"all\")")
	chaosOn := fs.Bool("chaos", true, "E18: inject kill/delay/stall faults (false = fault-free control through a transparent proxy)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	sizeCounts, err := intList("e14-sizes", *e14Sizes)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	clientCounts, err := intList("clients", *clients)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var modes []string
	for _, m := range strings.Split(*mode, ",") {
		m = strings.TrimSpace(m)
		if !experiments.E16ValidMode(m) {
			fmt.Fprintf(stderr, "lockbench: -mode wants a comma-separated subset of step,pipeline,run, got %q\n", *mode)
			return 2
		}
		modes = append(modes, m)
	}
	var scenarios []string // nil = the whole corpus
	if s := strings.TrimSpace(*scenario); s != "" && s != "all" {
		for _, name := range strings.Split(s, ",") {
			name = strings.TrimSpace(name)
			if _, ok := workload.ScenarioByName(name); !ok {
				fmt.Fprintf(stderr, "lockbench: -scenario %q is not in the corpus (want a subset of %s, or \"all\")\n",
					name, strings.Join(workload.ScenarioNames(), ","))
				return 2
			}
			scenarios = append(scenarios, name)
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
		"e14": func() experiments.Report { _, r := experiments.E14Recovery(sizeCounts); return r },
		"e16": func() experiments.Report {
			_, r := experiments.E16Transport(*seed, clientCounts, modes, *netAddr)
			return r
		},
		// E18 and E19 fix their own partition axis ({1,4}): the cell count
		// is scenarios x policies x partitions and every cell is a real
		// fault schedule or process lifecycle.
		"e18": func() experiments.Report {
			_, r := experiments.E18ChaosCorpus(*seed, scenarios, nil, *chaosOn, workload.ScenarioConfig{})
			return r
		},
		"e19": func() experiments.Report {
			_, r := experiments.E19KillRestart(*seed, scenarios, nil, workload.ScenarioConfig{})
			return r
		},
	}
	order := []string{"e6", "e7", "e8", "e9", "e10", "e11", "e12", "e14", "e16", "e18", "e19"}

	want := fs.Args()
	if len(want) == 0 {
		want = order
	}
	for _, name := range want {
		if _, ok := runs[name]; !ok {
			fmt.Fprintf(stderr, "lockbench: unknown experiment %q (want one of %s)\n", name, strings.Join(order, ", "))
			return 2
		}
	}
	exit := 0
	for _, name := range want {
		r := runs[name]()
		fmt.Fprintln(stdout, r.String())
		if r.Failed != "" {
			exit = 1
		}
	}
	return exit
}
