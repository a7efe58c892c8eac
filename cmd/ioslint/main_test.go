package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// buildTool compiles the ioslint binary once per test process, into a
// temp dir cleaned up on exit.
var buildTool = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "ioslint-test-")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "ioslint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("%v\n%s", err, out)
	}
	return bin, nil
})

func TestMain(m *testing.M) {
	code := m.Run()
	if bin, err := buildTool(); err == nil {
		os.RemoveAll(filepath.Dir(bin))
	}
	os.Exit(code)
}

func tool(t *testing.T) string {
	t.Helper()
	bin, err := buildTool()
	if err != nil {
		t.Fatalf("building ioslint: %v", err)
	}
	return bin
}

// runTool invokes the built binary and returns combined output and exit
// code.
func runTool(t *testing.T, dir string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(tool(t), args...)
	cmd.Dir = dir
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	code := 0
	if exit, ok := err.(*exec.ExitError); ok {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("running ioslint: %v", err)
	}
	return buf.String(), code
}

// TestBrokenModule runs the binary over a self-contained module seeded
// with exactly one violation per analyzer, asserting the exit status and
// each diagnostic's text and position.
func TestBrokenModule(t *testing.T) {
	out, code := runTool(t, filepath.Join("testdata", "brokenmod"), "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (findings); output:\n%s", code, out)
	}
	for _, want := range []string{
		"det/det.go:9:9: [determinism] time.Now in a deterministic package",
		"fp/fp.go:13:6: [fingerprint] fingerprint encoder Key does not consume Spec.Coef",
		"wt/wt.go:18:2: [wiretaint] wire-tainted value reaches Commit without validation",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q; got:\n%s", want, out)
		}
	}
	if strings.Contains(out, "clean/clean.go") {
		t.Errorf("clean package was flagged:\n%s", out)
	}
	if !strings.Contains(out, "ioslint: 3 finding(s)") {
		t.Errorf("want exactly 3 findings; got:\n%s", out)
	}
}

// TestRepoClean is the dogfood gate: the suite must pass over this
// repository itself.
func TestRepoClean(t *testing.T) {
	out, code := runTool(t, filepath.Join("..", ".."), "./...")
	if code != 0 {
		t.Fatalf("ioslint over the repo: exit %d, want 0; output:\n%s", code, out)
	}
	if strings.TrimSpace(out) != "" {
		t.Errorf("ioslint over the repo emitted output:\n%s", out)
	}
}
