package experiments

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"locksafe/internal/model"
	"locksafe/internal/workload"
	"locksafe/pkg/client"
)

// E19 is the durability experiment: a real lockd process — the built
// binary, not an in-process server — running with -data-dir and -fsync
// is SIGKILLed mid-burst, restarted over the same store, and the
// clients carry on: parked sessions resume with their pre-crash tokens
// and the remaining workload completes. The claim under test is the
// two-sided accounting bound across a process crash
//
//	confirmed <= recovered commits <= confirmed + unknown
//
// — every commit the server acknowledged before the kill must still be
// counted by the restarted server (fsync made it durable), and the
// restarted server must not invent commits beyond the attempts whose
// outcome the crash left unknown — plus the resumption claim: at least
// one session opened before the kill commits after the restart via
// OpResume. The final SIGTERM drain re-verifies the whole durable
// schedule serializable; a nonzero exit fails the cell.

// E19Lease is the session lease the harness runs lockd with: long
// enough that sessions opened before the SIGKILL are still within
// lease when the restarted process restores them parked.
const E19Lease = 30 * time.Second

// e19Holdovers is how many sessions each cell opens before the kill
// purely to resume after the restart.
const e19Holdovers = 2

// E19Row is one measured cell of the kill/restart grid.
type E19Row struct {
	Scenario   string
	Partitions int
	Clients    int
	// Recovered is the restarted server's final commit count: commits
	// restored from the WAL plus commits executed after the restart.
	Recovered int
	// Confirmed counts terminal OK responses clients received across
	// both process lifetimes; Unknown counts attempts whose connection
	// died with the process — the gap the accounting bound allows.
	Confirmed int
	Unknown   int
	// Aborted counts attempts refused terminally.
	Aborted int
	// Resumed counts pre-kill sessions that committed after the restart
	// through OpResume (the cell asserts it is at least 1).
	Resumed int
}

// e19Proc is one lockd process lifetime.
type e19Proc struct {
	cmd *exec.Cmd
	// addr is the listen address parsed from the startup banner.
	addr string
	// restored is the restore banner line ("" on a fresh store).
	restored string
	stderr   *bytes.Buffer
	done     chan error
}

// buildLockd compiles cmd/lockd into dir and returns the binary path.
// The package is named by import path, so the build works from any
// working directory inside the module.
func buildLockd(dir string) (string, error) {
	if _, err := exec.LookPath("go"); err != nil {
		return "", fmt.Errorf("go toolchain unavailable: %v", err)
	}
	bin := filepath.Join(dir, "lockd")
	cmd := exec.Command("go", "build", "-o", bin, "locksafe/cmd/lockd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build lockd: %v\n%s", err, out)
	}
	return bin, nil
}

// startLockd launches the binary and blocks until its startup banner
// names the listen address (or 15s pass). Stdout keeps draining in the
// background so the process never blocks on a full pipe.
func startLockd(bin string, args []string) (*e19Proc, error) {
	p := &e19Proc{cmd: exec.Command(bin, args...), stderr: &bytes.Buffer{}, done: make(chan error, 1)}
	p.cmd.Stderr = p.stderr
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	lines := bufio.NewScanner(stdout)
	ready := make(chan error, 1)
	go func() {
		for lines.Scan() {
			line := lines.Text()
			if strings.HasPrefix(line, "lockd: restored ") {
				p.restored = line
			}
			if strings.HasPrefix(line, "lockd: listening on ") {
				if f := strings.Fields(line); len(f) >= 4 {
					p.addr = f[3]
					ready <- nil
				} else {
					ready <- fmt.Errorf("unparsable banner %q", line)
				}
				break
			}
		}
		// Keep draining; the final drain summary flows through here.
		for lines.Scan() {
		}
		if p.addr == "" {
			ready <- fmt.Errorf("lockd exited before listening: %s", p.stderr.String())
		}
	}()
	go func() { p.done <- p.cmd.Wait() }()
	select {
	case err := <-ready:
		if err != nil {
			p.kill()
			return nil, err
		}
		return p, nil
	case <-time.After(15 * time.Second):
		p.kill()
		return nil, errors.New("lockd did not report a listen address within 15s")
	}
}

// kill SIGKILLs the process and waits it out — the crash under test.
func (p *e19Proc) kill() {
	p.cmd.Process.Kill()
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
	}
}

// drain SIGTERMs the process and returns its drain error, if any: a
// nonzero exit means the final serializability verdict (or the drain
// itself) failed.
func (p *e19Proc) drain() error {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.done:
		if err != nil {
			return fmt.Errorf("drain exit: %v\n%s", err, p.stderr.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		p.kill()
		return errors.New("lockd did not drain within 30s of SIGTERM")
	}
}

// E19KillRestart runs the grid: scenarios (all by default) x partition
// counts, each cell one build of the real binary driven over TCP,
// SIGKILLed once mid-burst and restarted over the same -data-dir. The
// harness overrides the scenarios' own lease preferences with E19Lease:
// this experiment measures crash recovery, not lease pressure (E18
// owns that), and a resumable session must outlive the restart.
func E19KillRestart(seed int64, names []string, partCounts []int, cfg workload.ScenarioConfig) ([]E19Row, Report) {
	if len(names) == 0 {
		names = workload.ScenarioNames()
	}
	if len(partCounts) == 0 {
		partCounts = []int{1, 4}
	}
	var rows []E19Row
	var b strings.Builder
	var failed string

	dir, err := os.MkdirTemp("", "e19-lockd-*")
	if err != nil {
		return nil, Report{ID: "E19", Title: "kill/restart durability", Failed: err.Error()}
	}
	defer os.RemoveAll(dir)
	bin, err := buildLockd(dir)
	if err != nil {
		return nil, Report{ID: "E19", Title: "kill/restart durability", Failed: err.Error()}
	}

	fmt.Fprintf(&b, "real process, -data-dir + -fsync, SIGKILL mid-burst, restart, resume\n\n")
	fmt.Fprintf(&b, "%-12s %-5s %9s %9s %8s %8s %8s\n",
		"scenario", "parts", "recovered", "confirmed", "unknown", "aborted", "resumed")
	for _, name := range names {
		sc, ok := workload.ScenarioByName(name)
		if !ok {
			return rows, Report{ID: "E19", Title: "kill/restart durability", Failed: fmt.Sprintf("unknown scenario %q", name)}
		}
		for _, pN := range partCounts {
			row, cellErr := e19Cell(bin, seed, sc, pN, cfg)
			if cellErr != "" && failed == "" {
				failed = cellErr
			}
			rows = append(rows, row)
			fmt.Fprintf(&b, "%-12s %5d %9d %9d %8d %8d %8d\n",
				row.Scenario, row.Partitions, row.Recovered, row.Confirmed,
				row.Unknown, row.Aborted, row.Resumed)
		}
	}
	fmt.Fprintf(&b, "\nEvery cell: the restarted process restored an unclean store, the\n")
	fmt.Fprintf(&b, "accounting bound confirmed <= recovered <= confirmed+unknown held\n")
	fmt.Fprintf(&b, "across the crash, at least one pre-kill session committed after the\n")
	fmt.Fprintf(&b, "restart via resume, and the final SIGTERM drain re-verified the whole\n")
	fmt.Fprintf(&b, "durable schedule serializable.\n")
	return rows, Report{ID: "E19", Title: "kill/restart durability: the accounting bound survives SIGKILL", Text: b.String(), Failed: failed}
}

// e19Cell runs one (scenario, partitions) cell. The returned error
// string is empty on success.
func e19Cell(bin string, seed int64, sc workload.Scenario, partitions int, cfg workload.ScenarioConfig) (E19Row, string) {
	run := sc.Gen(rand.New(rand.NewSource(seed)), cfg)
	row := E19Row{Scenario: sc.Name, Partitions: partitions, Clients: len(run.Scripts)}
	fail := func(format string, args ...any) (E19Row, string) {
		return row, fmt.Sprintf("e19 %s/p%d: %s", sc.Name, partitions, fmt.Sprintf(format, args...))
	}
	if err := sc.Check(cfg, run); err != nil {
		return fail("invariants: %v", err)
	}
	dataDir, err := os.MkdirTemp("", "e19-data-*")
	if err != nil {
		return fail("tempdir: %v", err)
	}
	defer os.RemoveAll(dataDir)

	ents := make([]string, len(run.Universe))
	for i, e := range run.Universe {
		ents[i] = string(e)
	}
	args := []string{
		"-addr", "127.0.0.1:0",
		"-policy", "2PL",
		"-init", strings.Join(ents, ","),
		"-partitions", fmt.Sprint(partitions),
		"-data-dir", dataDir,
		"-fsync",
		"-lease", E19Lease.String(),
		"-backoff", "50us",
		"-max-retries", "1000",
		"-drain-timeout", "2s",
	}
	proc, err := startLockd(bin, args)
	if err != nil {
		return fail("start: %v", err)
	}

	// The holdover sessions: opened before the burst, never stepped,
	// resumed after the restart. Their client handle carries the sid and
	// token across the crash. With several partitions the last one spans
	// two of them, so the restore parks a cross-partition session too.
	hc, err := client.Dial(proc.addr)
	if err != nil {
		proc.kill()
		return fail("dial: %v", err)
	}
	var holdovers []*client.Session
	for i := 0; i < e19Holdovers && len(run.Universe) > 0; i++ {
		body := []model.Entity{run.Universe[i%len(run.Universe)]}
		if i == e19Holdovers-1 && partitions > 1 {
			for _, e := range run.Universe {
				if model.PartitionOf(e, partitions) != model.PartitionOf(body[0], partitions) {
					body = append(body, e)
					break
				}
			}
		}
		tx := model.Txn{Name: fmt.Sprintf("holdover-%d", i), Steps: workload.TwoPhaseSteps(body)}
		s, herr := hc.Open(tx)
		if herr != nil {
			proc.kill()
			return fail("holdover open: %v", herr)
		}
		holdovers = append(holdovers, s)
	}

	// Phase 1: the burst, each script on its own connection, until the
	// SIGKILL cuts everything. resumeAt[ci] is where the script stopped:
	// the index after the last attempt with a known outcome (the attempt
	// the crash interrupted counts unknown and is not replayed — running
	// it again could commit its body twice).
	var confirmed, unknown, aborted atomic.Int64
	resumeAt := make([]int, len(run.Scripts))
	backoff := client.Backoff{Base: 50 * time.Microsecond}
	var wg sync.WaitGroup
	for ci, script := range run.Scripts {
		wg.Add(1)
		go func(ci int, script []workload.ScriptTxn) {
			defer wg.Done()
			resumeAt[ci] = len(script)
			conn, derr := client.Dial(proc.addr)
			if derr != nil {
				resumeAt[ci] = 0
				return
			}
			defer conn.Close()
			for ti, st := range script {
				if st.Stall {
					if _, oerr := conn.Open(st.Txn); errors.Is(oerr, client.ErrConnLost) {
						resumeAt[ci] = ti + 1
						return
					}
					continue
				}
				var rerr error
				if (ci+ti)%2 == 0 {
					rerr = conn.Run(st.Txn)
				} else {
					s, oerr := conn.Open(st.Txn)
					if oerr != nil {
						rerr = oerr
					} else {
						rerr = s.RunPipelined(backoff)
					}
				}
				switch {
				case rerr == nil:
					confirmed.Add(1)
				case errors.Is(rerr, client.ErrConnLost):
					unknown.Add(1)
					resumeAt[ci] = ti + 1
					return
				default:
					aborted.Add(1)
				}
			}
		}(ci, script)
	}

	// The killer: SIGKILL once the burst is demonstrably mid-flight (a
	// third of the active transactions confirmed), or after 3s for
	// scripts too small or too contended to get there.
	killAt := int64(run.Active()) / 3
	for waited := time.Duration(0); confirmed.Load() < killAt && waited < 3*time.Second; waited += time.Millisecond {
		time.Sleep(time.Millisecond)
	}
	proc.kill()
	wg.Wait()
	hc.Close()

	// Phase 2: restart over the same store.
	proc2, err := startLockd(bin, args)
	if err != nil {
		return fail("restart: %v", err)
	}
	if proc2.restored == "" || !strings.Contains(proc2.restored, "clean=false") {
		proc2.kill()
		return fail("restart banner %q: want an unclean restore (the process was SIGKILLed)", proc2.restored)
	}
	c2, err := client.Dial(proc2.addr)
	if err != nil {
		proc2.kill()
		return fail("redial: %v", err)
	}

	// Resume the holdovers: parked by the restore within their lease,
	// they reattach by sid + persisted token and replay to commit.
	for _, h := range holdovers {
		rs, rerr := c2.Resume(h)
		if rerr != nil {
			c2.Close()
			proc2.kill()
			return fail("resume sid %d: %v", h.SID(), rerr)
		}
		if rerr := rs.RunWith(backoff); rerr != nil {
			c2.Close()
			proc2.kill()
			return fail("resumed run sid %d: %v", h.SID(), rerr)
		}
		row.Resumed++
		confirmed.Add(1)
	}

	// Finish the scripts where they stopped, serially on one connection.
	for ci, script := range run.Scripts {
		for _, st := range script[resumeAt[ci]:] {
			if st.Stall {
				continue
			}
			s, oerr := c2.Open(st.Txn)
			if oerr != nil {
				aborted.Add(1)
				continue
			}
			if rerr := s.RunPipelined(backoff); rerr != nil {
				aborted.Add(1)
				continue
			}
			confirmed.Add(1)
		}
	}

	stats, err := c2.Stats()
	c2.Close()
	if err != nil {
		proc2.kill()
		return fail("stats: %v", err)
	}
	row.Recovered = stats.Commits
	row.Confirmed = int(confirmed.Load())
	row.Unknown = int(unknown.Load())
	row.Aborted = int(aborted.Load())

	if err := proc2.drain(); err != nil {
		return fail("%v", err)
	}
	if row.Recovered < row.Confirmed || row.Recovered > row.Confirmed+row.Unknown {
		return fail("accounting: server recovered %d commits, clients confirmed %d with %d unknown",
			row.Recovered, row.Confirmed, row.Unknown)
	}
	if row.Resumed < 1 {
		return fail("no pre-kill session committed after the restart")
	}
	return row, ""
}
