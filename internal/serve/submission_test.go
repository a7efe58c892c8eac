package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"ios/internal/graph"
	"ios/internal/models"
)

// graphJSON is a graph's JSON form, the bytes a client submits.
func graphJSON(t *testing.T, g *graph.Graph) json.RawMessage {
	t.Helper()
	raw, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func submissions(s *Server) int { return s.submissions.Len() }

// TestRefusedSubmissionIsRefusedEveryTime: bytes that do not resolve are
// not recorded, so each of three submissions is parsed and answered 400.
func TestRefusedSubmissionIsRefusedEveryTime(t *testing.T) {
	s := NewServer(Config{})
	for name, raw := range map[string]string{
		"malformed":       `{"nodes": [{"name": "x", "op": "conv"}]}`,
		"unknown input":   `{"nodes": [{"name": "c", "op": "conv", "inputs": ["nope"], "out": 4}]}`,
		"shapes disagree": `{"nodes": [{"name": "a", "op": "input", "shape": [1, 3, 8, 8]}, {"name": "b", "op": "input", "shape": [1, 3, 4, 4]}, {"name": "s", "op": "add", "inputs": ["a", "b"]}]}`,
	} {
		for i := 0; i < 3; i++ {
			for _, path := range []string{"/optimize", "/measure"} {
				code, body := post(s, path, mustMarshal(t, OptimizeRequest{Graph: json.RawMessage(raw)}))
				if code != http.StatusBadRequest || !bytes.Contains(body, []byte(`"error"`)) {
					t.Errorf("%s %s, submission %d: %d %s, want 400 with an error", name, path, i+1, code, body)
				}
			}
		}
	}
	if n := submissions(s); n != 0 {
		t.Errorf("%d refused submissions recorded", n)
	}
}

// TestSubmissionHitChecksBatch: a repeat submission is checked against the
// batch its bytes resolved to, as the first one was against the parse.
func TestSubmissionHitChecksBatch(t *testing.T) {
	s := NewServer(Config{})
	raw := graphJSON(t, models.Figure2Block(2))
	if _, _, err := optimizeOK(s, mustMarshal(t, OptimizeRequest{Graph: raw})); err != nil {
		t.Fatal(err)
	}
	code, body := post(s, "/optimize", mustMarshal(t, OptimizeRequest{Graph: raw, Batch: 7}))
	if code != http.StatusBadRequest || !bytes.Contains(body, []byte("conflicts")) {
		t.Errorf("conflicting batch on a hit: %d %s, want a 400 naming the conflict", code, body)
	}
	if r, _, err := optimizeOK(s, mustMarshal(t, OptimizeRequest{Graph: raw, Batch: 2})); err != nil || !r.Cached || r.Batch != 2 {
		t.Errorf("agreeing batch on a hit: %v, cached %v, batch %d", err, r.Cached, r.Batch)
	}
}

// TestSubmissionTableStaysWithinCap: cap + 1 distinct submissions leave
// at most cap entries, and every one of them resolved.
func TestSubmissionTableStaysWithinCap(t *testing.T) {
	s := NewServer(Config{})
	for i := 0; i <= submissionCap; i++ {
		g := models.Figure2Block(1)
		g.Name = fmt.Sprintf("fig2-%d", i)
		if _, err := s.resolve("", graphJSON(t, g), 0, ""); err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	if n := submissions(s); n > submissionCap {
		t.Errorf("%d submissions recorded, cap %d", n, submissionCap)
	}
}

// TestConcurrentFirstSubmissionsParseOnce: eight concurrent first
// submissions of one graph body parse it once — the submission table
// counts one miss, and the other seven waited for it or hit it — and all
// get the same answer.
func TestConcurrentFirstSubmissionsParseOnce(t *testing.T) {
	s := NewServer(Config{})
	const n = 8
	body := mustMarshal(t, OptimizeRequest{Graph: graphJSON(t, models.InceptionE(1))})
	schedules := make([]json.RawMessage, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range schedules {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			r, _, err := optimizeOK(s, body)
			if err != nil {
				t.Error(err)
			}
			schedules[i] = r.Schedule
		}(i)
	}
	close(start)
	wg.Wait()
	for i, sc := range schedules {
		if !bytes.Equal(sc, schedules[0]) {
			t.Fatalf("request %d got another schedule than request 0", i)
		}
	}
	if st := s.submissions.Stats(); st.Misses != 1 || st.Hits+st.Coalesced != n-1 || st.Size != 1 {
		t.Errorf("submission table after %d concurrent first submissions: %+v, want 1 miss, %d hits or waits, 1 entry", n, st, n-1)
	}
}

// TestSubmissionHitAfterEviction: a repeat submission whose schedule the
// cache has since evicted is parsed from its bytes again and answered with
// the very schedule its first answer carried. Distinct graphs are
// submitted to a cache of capacity 1 until the first is the entry shed
// (an arbitrary one; the key hash is unseeded, so the count is fixed).
func TestSubmissionHitAfterEviction(t *testing.T) {
	s := NewServer(Config{Cache: NewScheduleCache(1)})
	first := mustMarshal(t, OptimizeRequest{Graph: graphJSON(t, models.Figure2Block(1))})
	want, _, err := optimizeOK(s, first)
	if err != nil {
		t.Fatal(err)
	}
	firstKey := Key{Model: want.Model, Batch: 1, Device: want.Device, Opts: want.Options}
	others := 0
	for _, ok := s.Cache().Lookup(firstKey); ok; _, ok = s.Cache().Lookup(firstKey) {
		if others++; others > 1000 {
			t.Fatal("1000 other submissions never evicted the first")
		}
		g := models.Figure2Block(1)
		g.Name = fmt.Sprintf("other-%d", others) // a new fingerprint, the same blocks
		if _, _, err := optimizeOK(s, mustMarshal(t, OptimizeRequest{Graph: graphJSON(t, g)})); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("the first submission was shed after %d others", others)
	got, _, err := optimizeOK(s, first)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cached || got.Model != want.Model || !bytes.Equal(got.Schedule, want.Schedule) {
		t.Errorf("after eviction: cached %v, model %s (want %s), same schedule %v", got.Cached, got.Model, want.Model, bytes.Equal(got.Schedule, want.Schedule))
	}
	if n := submissions(s); n != 1+others {
		t.Errorf("%d submissions recorded, want %d", n, 1+others)
	}
}

// TestMeasureSubmissionHit: /measure of a submitted graph whose schedule is
// cached answers exactly as a server that never saw it, with a schedule and
// with each baseline.
func TestMeasureSubmissionHit(t *testing.T) {
	raw := graphJSON(t, models.InceptionE(1))
	warm := NewServer(Config{})
	opt, _, err := optimizeOK(warm, mustMarshal(t, OptimizeRequest{Graph: raw}))
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []MeasureRequest{
		{Graph: raw, Schedule: opt.Schedule},
		{Graph: raw, Baseline: "sequential"},
		{Graph: raw, Baseline: "greedy"},
	} {
		body := mustMarshal(t, req)
		code, got := post(warm, "/measure", body)
		wantCode, want := post(NewServer(Config{}), "/measure", body)
		if code != http.StatusOK || wantCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("/measure %q on a hit: %d %s\nwant %d %s", req.Baseline, code, got, wantCode, want)
		}
	}
}

// TestConcurrentRepeatSubmissions: eight clients repeating one submission
// all get the same answer, the first search's, whoever parsed the bytes.
func TestConcurrentRepeatSubmissions(t *testing.T) {
	s := NewServer(Config{})
	body := mustMarshal(t, OptimizeRequest{Graph: graphJSON(t, models.Figure2Block(1))})
	measure := mustMarshal(t, MeasureRequest{Graph: graphJSON(t, models.Figure2Block(1)), Baseline: "sequential"})
	answers := make([][]string, 8)
	var wg sync.WaitGroup
	for c := range answers {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				r, _, err := optimizeOK(s, body)
				if err != nil {
					t.Error(err)
					return
				}
				code, m := post(s, "/measure", measure)
				if code != http.StatusOK {
					t.Errorf("/measure: %d %s", code, m)
					return
				}
				r.Cached = false
				answers[c] = append(answers[c], fmt.Sprintf("%+v %s", r, m))
			}
		}(c)
	}
	wg.Wait()
	want := answers[0][0]
	for c, list := range answers {
		for i, got := range list {
			if got != want {
				t.Fatalf("client %d answer %d:\n%s\nwant\n%s", c, i, got, want)
			}
		}
	}
	if st := s.Cache().Stats(); st.Misses != 1 || !strings.HasPrefix(want, "{Model:graph:") {
		t.Errorf("cache %+v; answer %.40s", st, want)
	}
}
