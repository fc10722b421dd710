package experiments

import (
	"strings"
	"testing"
)

func TestE1(t *testing.T) {
	r := E1CanonicalShapes()
	if r.Failed != "" {
		t.Fatalf("E1 failed: %s\n%s", r.Failed, r.Text)
	}
	for _, want := range []string{"Fig 1a", "Fig 1b", "multiple!", "NOT first"} {
		if !strings.Contains(r.Text, want) {
			t.Errorf("E1 output missing %q", want)
		}
	}
}

func TestE2(t *testing.T) {
	r := E2Figure2()
	if r.Failed != "" {
		t.Fatalf("E2 failed: %s\n%s", r.Failed, r.Text)
	}
	if !strings.Contains(r.Text, "serializable=false") {
		t.Errorf("E2 must show nonserializability:\n%s", r.Text)
	}
}

func TestE3(t *testing.T) {
	r := E3DDAGWalkthrough()
	if r.Failed != "" {
		t.Fatalf("E3 failed: %s\n%s", r.Failed, r.Text)
	}
	if !strings.Contains(r.Text, "DENY") {
		t.Error("E3 must show the L5 denial")
	}
}

func TestE4(t *testing.T) {
	r := E4AltruisticWalkthrough()
	if r.Failed != "" {
		t.Fatalf("E4 failed: %s\n%s", r.Failed, r.Text)
	}
	for _, want := range []string{"wake", "DENY", "dissolves"} {
		if !strings.Contains(r.Text, want) {
			t.Errorf("E4 output missing %q:\n%s", want, r.Text)
		}
	}
}

func TestE5(t *testing.T) {
	r := E5DTRWalkthrough()
	if r.Failed != "" {
		t.Fatalf("E5 failed: %s\n%s", r.Failed, r.Text)
	}
	if !strings.Contains(r.Text, "1(2(3)); 4") || !strings.Contains(r.Text, "(empty forest)") {
		t.Errorf("E5 must show forest evolution:\n%s", r.Text)
	}
}

func TestE6Small(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 20
	}
	r := E6Differential(n, 123)
	if r.Failed != "" {
		t.Fatalf("E6 failed: %s\n%s", r.Failed, r.Text)
	}
	if !strings.Contains(r.Text, "disagreements: 0") {
		t.Error("E6 must report zero disagreements")
	}
}

func TestE7Small(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 4
	}
	r := E7PolicySafety(n, 7)
	if r.Failed != "" {
		t.Fatalf("E7 failed: %s\n%s", r.Failed, r.Text)
	}
}

func TestE8(t *testing.T) {
	rows, r := E8Performance(1)
	if r.Failed != "" {
		t.Fatalf("E8 failed: %s\n%s", r.Failed, r.Text)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range rows {
		if row.Makespan == 0 {
			t.Errorf("row %+v has zero makespan (run failed)", row)
		}
	}
}

func TestE9(t *testing.T) {
	if testing.Short() {
		t.Skip("E9 is slow")
	}
	r := E9Scalability(2)
	if r.Failed != "" {
		t.Fatalf("E9 failed: %s\n%s", r.Failed, r.Text)
	}
}

func TestReportString(t *testing.T) {
	ok := Report{ID: "EX", Title: "demo", Text: "body\n"}
	if !strings.Contains(ok.String(), "[OK]") {
		t.Error("ok report must say OK")
	}
	bad := Report{ID: "EX", Title: "demo", Failed: "boom"}
	if !strings.Contains(bad.String(), "FAILED: boom") {
		t.Error("failed report must carry the reason")
	}
}

func TestE10(t *testing.T) {
	n := 20
	if testing.Short() {
		n = 5
	}
	r := E10SharedDDAG(n, 1)
	if r.Failed != "" {
		t.Fatalf("E10 failed: %s\n%s", r.Failed, r.Text)
	}
	for _, want := range []string{"UNSAFE under the naive S/X rules", "exclusive locks only (Theorem 2): safe=true"} {
		if !strings.Contains(r.Text, want) {
			t.Errorf("E10 output missing %q", want)
		}
	}
}

func TestAllRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("All() runs the full suite")
	}
	for _, r := range All() {
		if r.Failed != "" {
			t.Errorf("%s failed: %s", r.ID, r.Failed)
		}
		if r.Text == "" {
			t.Errorf("%s produced no output", r.ID)
		}
	}
}

func TestE11Ablation(t *testing.T) {
	rows, r := E11Ablation(3)
	if r.Failed != "" {
		t.Fatalf("E11 failed: %s\n%s", r.Failed, r.Text)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[len(rows)-1].Makespan > rows[0].Makespan {
		t.Error("eager release must not increase makespan")
	}
}

func TestE12SharedReaders(t *testing.T) {
	r := E12SharedReaders(1)
	if r.Failed != "" {
		t.Fatalf("E12 failed: %s\n%s", r.Failed, r.Text)
	}
	if !strings.Contains(r.Text, "shared readers") {
		t.Error("missing table")
	}
}

// TestE16Transport runs the lockd transport smoke in-process: two
// clients per cell over loopback TCP in every transport mode. The cell
// assertions (every body commits, clean drain, server commit count ==
// clients') live inside E16Transport; the test pins the grid's shape and
// each cell's commit count.
func TestE16Transport(t *testing.T) {
	const clients = 2
	rows, r := E16Transport(1, []int{clients}, []string{"step", "pipeline", "run"}, "")
	if r.Failed != "" {
		t.Fatalf("E16 failed: %s\n%s", r.Failed, r.Text)
	}
	if want := 2 * 3; len(rows) != want { // workloads x modes
		t.Fatalf("grid has %d cells, want %d", len(rows), want)
	}
	for _, row := range rows {
		if row.Commits != clients*e16Rounds {
			t.Errorf("%s/%s: %d commits, want %d", row.Workload, row.Mode, row.Commits, clients*e16Rounds)
		}
	}
}
