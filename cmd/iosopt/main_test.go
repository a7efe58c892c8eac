package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ios"
)

// iosopt runs the command in-process and returns its exit status and
// output.
func iosopt(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

// engineSchedule is what a library caller gets for the same search, in
// the indented form iosopt writes.
func engineSchedule(t *testing.T, g *ios.Graph, opts ios.Options) string {
	t.Helper()
	res, err := ios.NewEngine(ios.V100).Optimize(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return indented(t, res.Schedule)
}

// indented is a schedule as iosopt writes it: indented JSON and a newline.
func indented(t *testing.T, s *ios.Schedule) string {
	t.Helper()
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data) + "\n"
}

// recipeFile is the schedule file's form, built from the schedule's
// stages independently of Schedule.MarshalJSON: the recipe struct
// json.MarshalIndent'ed with two-space indents, and a newline.
func recipeFile(t *testing.T, s *ios.Schedule) string {
	t.Helper()
	type stage struct {
		Strategy string     `json:"strategy"`
		Groups   [][]string `json:"groups"`
	}
	recipe := struct {
		Graph  string  `json:"graph"`
		Stages []stage `json:"stages"`
	}{Graph: s.Graph.Name}
	for _, st := range s.Stages {
		js := stage{Strategy: st.Strategy.String()}
		for _, g := range st.Groups {
			names := make([]string, len(g))
			for i, n := range g {
				names[i] = n.Name
			}
			js.Groups = append(js.Groups, names)
		}
		recipe.Stages = append(recipe.Stages, js)
	}
	data, err := json.MarshalIndent(recipe, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data) + "\n"
}

// TestScheduleFileKeepsItsBytes: the file -o writes is the schedule's
// recipe indented by two spaces, byte for byte, although
// Schedule.MarshalJSON emits compact JSON.
func TestScheduleFileKeepsItsBytes(t *testing.T) {
	for _, tc := range []struct {
		model string
		g     *ios.Graph
	}{
		{"fig2", ios.Figure2Block(1)},
		{"inception_v3", ios.InceptionV3(1)},
	} {
		out := filepath.Join(t.TempDir(), "s.json")
		code, stdout, stderr := iosopt(t, "-model", tc.model, "-o", out)
		if code != 0 || stdout != "" {
			t.Fatalf("%s: exit status %d, stdout %q: %s", tc.model, code, stdout, stderr)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ios.NewEngine(ios.V100).Optimize(context.Background(), tc.g, ios.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := recipeFile(t, res.Schedule); string(got) != want {
			t.Errorf("%s: -o wrote\n%s\nthe indented recipe is\n%s", tc.model, got, want)
		}
		compact, err := res.Schedule.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.Compact(&want, got); err != nil || !bytes.Equal(compact, want.Bytes()) {
			t.Errorf("%s: MarshalJSON is not the file compacted (%v):\n%s", tc.model, err, compact)
		}
	}
}

// TestScheduleIsTheEngines: iosopt's stdout is the schedule JSON an
// Engine returns for the same graph, byte for byte.
func TestScheduleIsTheEngines(t *testing.T) {
	for _, tc := range []struct {
		model string
		g     *ios.Graph
	}{
		{"fig2", ios.Figure2Block(1)},
		{"squeezenet", ios.SqueezeNet(1)},
	} {
		code, stdout, stderr := iosopt(t, "-model", tc.model)
		if code != 0 {
			t.Fatalf("%s: exit status %d: %s", tc.model, code, stderr)
		}
		if want := engineSchedule(t, tc.g, ios.Options{}); stdout != want {
			t.Errorf("%s: iosopt emitted\n%s\nthe engine returns\n%s", tc.model, stdout, want)
		}
	}
}

// TestSearchFlagsReachSearchAndSweep: -strategy, -r and -s configure the
// single search and every search of a -batches sweep, whose plan JSON
// ios.LoadBatchPlan reads back.
func TestSearchFlagsReachSearchAndSweep(t *testing.T) {
	opts := ios.Options{Strategies: ios.MergeOnly, Pruning: ios.Pruning{R: 1, S: 2}}
	flags := []string{"-model", "fig2", "-strategy", "merge", "-r", "1", "-s", "2"}

	code, stdout, stderr := iosopt(t, flags...)
	if code != 0 {
		t.Fatalf("exit status %d: %s", code, stderr)
	}
	if want := engineSchedule(t, ios.Figure2Block(1), opts); stdout != want {
		t.Errorf("single search emitted\n%s\nthe engine returns under %s\n%s", stdout, opts.Fingerprint(), want)
	}
	if stdout == engineSchedule(t, ios.Figure2Block(1), ios.Options{}) {
		t.Error("the flags left the single search at the default options")
	}

	code, stdout, stderr = iosopt(t, append(flags, "-batches", "1,8")...)
	if code != 0 {
		t.Fatalf("sweep: exit status %d: %s", code, stderr)
	}
	p, err := ios.LoadBatchPlan(strings.NewReader(stdout))
	if err != nil {
		t.Fatalf("LoadBatchPlan on iosopt's plan: %v", err)
	}
	if p.Opts != opts.Fingerprint() {
		t.Errorf("plan options %q, want %q", p.Opts, opts.Fingerprint())
	}
	for i, b := range p.Batches() {
		if got, want := indented(t, p.Points[i].Schedule), engineSchedule(t, ios.Figure2Block(b), opts); got != want {
			t.Errorf("batch %d: sweep point\n%s\nthe engine returns\n%s", b, got, want)
		}
	}
}

// TestCacheFilesWarmARerun: a second run on the same -block-cache file
// loads what the first saved and emits the same bytes.
func TestCacheFilesWarmARerun(t *testing.T) {
	args := []string{"-model", "squeezenet", "-block-cache", filepath.Join(t.TempDir(), "b.cache")}
	code, cold, stderr := iosopt(t, args...)
	if code != 0 {
		t.Fatalf("cold run: exit status %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "starting cold") {
		t.Errorf("cold run did not report a missing cache file: %s", stderr)
	}
	code, warm, stderr := iosopt(t, args...)
	if code != 0 {
		t.Fatalf("warm run: exit status %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "cached block schedules from") || strings.Contains(stderr, "loaded 0 cached block schedules") {
		t.Errorf("warm run loaded no cached block schedules: %s", stderr)
	}
	if warm != cold {
		t.Errorf("warm run emitted\n%s\nthe cold run\n%s", warm, cold)
	}
}

// TestUsageErrors: a bad command line fails with a message, not a panic.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args      []string
		stderrHas string
	}{
		{[]string{"-graph", "g.json", "-model", "fig2"}, "not both"},
		{[]string{"-model", "fig2", "-device", "tpu"}, `unknown device "tpu"`},
		{[]string{"-model", "fig2", "-batches", "1,x"}, `bad batch size "x"`},
		{[]string{"-model", "fig2", "-batches", ","}, "empty batch list"},
		{[]string{"-model", "fig2", "-workers", "2"}, "flag provided but not defined"},
	} {
		code, stdout, stderr := iosopt(t, tc.args...)
		if code == 0 || stdout != "" || !strings.Contains(stderr, tc.stderrHas) {
			t.Errorf("%q: exit status %d, stdout %q, stderr %q; want non-zero, nothing, %q",
				tc.args, code, stdout, stderr, tc.stderrHas)
		}
	}
}

// TestTimeoutStillSavesCaches: a search cut short by -timeout fails, and
// the block-cache file is written anyway so a retry resumes from it.
func TestTimeoutStillSavesCaches(t *testing.T) {
	bfile := filepath.Join(t.TempDir(), "b.cache")
	code, stdout, stderr := iosopt(t, "-model", "squeezenet", "-timeout", "1ns", "-block-cache", bfile)
	if code == 0 || stdout != "" || !strings.Contains(stderr, "timed out") {
		t.Fatalf("exit status %d, stdout %q, stderr %q; want a timeout failure", code, stdout, stderr)
	}
	if _, err := os.Stat(bfile); err != nil {
		t.Errorf("cache file not written after the timeout: %v", err)
	}
}

// cancelOnNewline is a stderr that cancels the run's context at the bare
// "\n" ending the progress line, which iosopt writes right after the
// search returns and before it measures the schedule.
type cancelOnNewline struct {
	bytes.Buffer
	cancel context.CancelFunc
}

func (w *cancelOnNewline) Write(p []byte) (int, error) {
	if string(p) == "\n" {
		w.cancel()
	}
	return w.Buffer.Write(p)
}

// TestCancelAfterSearchSavesBlockCache: a deadline or Ctrl-C that lands
// after the search has returned, while the schedule is being measured,
// fails the run but keeps every block the search completed.
func TestCancelAfterSearchSavesBlockCache(t *testing.T) {
	bfile := filepath.Join(t.TempDir(), "b.cache")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout bytes.Buffer
	stderr := &cancelOnNewline{cancel: cancel}
	code := run(ctx, []string{"-model", "squeezenet", "-progress", "-block-cache", bfile}, &stdout, stderr)
	if code != 1 || stdout.Len() != 0 {
		t.Fatalf("exit status %d, stdout %q, stderr %q; want 1 and nothing", code, stdout.String(), stderr.String())
	}
	if ctx.Err() == nil {
		t.Fatal("the progress line never ended; the test is vacuous")
	}
	if n, err := ios.NewBlockCache().LoadFile(bfile); err != nil || n == 0 {
		t.Errorf("the block cache file reloads %d entries (%v), want the search's blocks", n, err)
	}
}
