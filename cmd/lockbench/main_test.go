package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownExperimentRefusedBeforeAnyRuns pins argument validation:
// a bad name anywhere on the command line exits 2 with the valid ids on
// stderr before the experiments ahead of it produce any output.
func TestUnknownExperimentRefusedBeforeAnyRuns(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"e8", "e99"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("an experiment ran before the refusal:\n%s", out.String())
	}
	for _, want := range []string{`"e99"`, "e6, e7, e8, e9, e10, e11, e12, e14, e16, e18, e19"} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("stderr missing %q: %s", want, errb.String())
		}
	}
}

func TestRunsNamedExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-e14-sizes", "300,600", "e14"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "=== E14:") || !strings.Contains(out.String(), "[OK]") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}
