package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"ios/internal/expt"
)

func TestRun(t *testing.T) {
	list := strings.Join(expt.Names(), "\n") + "\n"
	for _, tc := range []struct {
		name      string
		args      []string
		code      int
		stdout    string // exact, unless stdoutHas is set
		stdoutHas string
		stderrHas string
	}{
		{name: "list", args: []string{"-list"}, stdout: list},
		{name: "one experiment", args: []string{"-quick", "-exp", "table2"}, stdoutHas: "### table2 ###\n== Table 2: CNN benchmarks =="},
		{name: "ids are trimmed", args: []string{"-quick", "-exp", " fig1 , table2"}, stdoutHas: "### fig1 ###"},
		// Failures are decided before any experiment writes a byte.
		{name: "unknown id after a known one", args: []string{"-quick", "-exp", "fig1,typo"}, code: 2, stderrHas: `unknown experiment "typo"`},
		{name: "unknown device", args: []string{"-device", "tpu"}, code: 2, stderrHas: `unknown device "tpu"`},
		{name: "removed flag", args: []string{"-traffic-json", "x"}, code: 2, stderrHas: "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), tc.args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit status %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			if tc.stdoutHas != "" {
				if !strings.Contains(stdout.String(), tc.stdoutHas) {
					t.Errorf("stdout %q lacks %q", stdout.String(), tc.stdoutHas)
				}
			} else if stdout.String() != tc.stdout {
				t.Errorf("stdout = %q, want %q", stdout.String(), tc.stdout)
			}
			if !strings.Contains(stderr.String(), tc.stderrHas) {
				t.Errorf("stderr %q lacks %q", stderr.String(), tc.stderrHas)
			}
		})
	}
}

// TestListedNamesResolve: every id -list prints is one -exp accepts.
func TestListedNamesResolve(t *testing.T) {
	for _, name := range expt.Names() {
		if _, ok := expt.All[name]; !ok {
			t.Errorf("-list prints %q, which -exp would reject", name)
		}
	}
}

// TestCancelledRunFails: the ctx reaches the experiment's search.
func TestCancelledRunFails(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	if code := run(ctx, []string{"-quick", "-exp", "fig6"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit status %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), context.Canceled.Error()) {
		t.Errorf("stderr %q does not name the cancellation", stderr.String())
	}
}
