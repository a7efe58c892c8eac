package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"testing"

	"ios/internal/baseline"
	"ios/internal/graph"
	"ios/internal/models"
)

// TestPooledBodiesStayIsolated: request bodies share pooled buffers and
// their graph and schedule fields alias them, so graph submissions and
// posted schedules of different sizes, interleaved by concurrent clients
// on one server, must each be answered what a fresh server answers; and
// once they are done, the cached answers, the submission table and the
// /measure quotes must be what they were.
func TestPooledBodiesStayIsolated(t *testing.T) {
	type request struct {
		path string
		body []byte
	}
	// stable is an answer without what moves when a search reruns: the
	// cached flag and the search's wall time.
	stable := func(path string, answer []byte) string {
		if path != "/optimize" {
			return string(answer)
		}
		var r OptimizeResponse
		if err := json.Unmarshal(answer, &r); err != nil {
			return fmt.Sprintf("undecodable %v: %s", err, answer)
		}
		r.Cached, r.Search.WallMS = false, 0
		return string(mustMarshal(t, r))
	}
	// The reference: a fresh server answering one request at a time.
	ref := NewServer(Config{})
	var reqs []request
	var want []string
	ask := func(path string, v any) []byte {
		t.Helper()
		r := request{path, mustMarshal(t, v)}
		code, answer := post(ref, r.path, r.body)
		if code != http.StatusOK {
			t.Fatalf("reference %s %.60s: %d %s", r.path, r.body, code, answer)
		}
		reqs, want = append(reqs, r), append(want, stable(r.path, answer))
		return answer
	}
	for _, name := range []string{"fig2", "squeezenet", "inception"} {
		entry, _ := models.EntryByName(name)
		g := entry.Build(1)
		raw := graphJSON(t, g)
		var opt OptimizeResponse
		if err := json.Unmarshal(ask("/optimize", OptimizeRequest{Graph: raw}), &opt); err != nil {
			t.Fatal(err)
		}
		greedy, err := baseline.Greedy(g)
		if err != nil {
			t.Fatal(err)
		}
		greedyJSON, err := greedy.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		ask("/measure", MeasureRequest{Graph: raw, Schedule: opt.Schedule})        // quoted from the entry
		ask("/measure", MeasureRequest{Graph: raw, Schedule: greedyJSON})          // parsed and measured
		ask("/measure", MeasureRequest{Model: entry.Name, Schedule: opt.Schedule}) // parsed against a zoo build
		ask("/measure", MeasureRequest{Graph: raw, Baseline: "sequential"})
	}

	s := NewServer(Config{})
	rounds := 4
	if raceEnabled {
		rounds = 2
	}
	const clients = 8
	got := make([][]string, clients) // client c's answers, in request order
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got[c] = make([]string, len(reqs))
			for i := 0; i < rounds*len(reqs); i++ {
				k := (c*5 + i) % len(reqs) // each client starts elsewhere
				r := reqs[k]
				code, answer := post(s, r.path, r.body)
				if code != http.StatusOK {
					t.Errorf("client %d: %s %.60s: %d %s", c, r.path, r.body, code, answer)
					return
				}
				if a := stable(r.path, answer); a != want[k] {
					t.Errorf("client %d: %s %.60s answers\n%s\na fresh server answers\n%s", c, r.path, r.body, a, want[k])
					return
				}
				got[c][k] = string(answer)
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	table, _ := s.submissions.Cut(0)
	if len(table) != 3 {
		t.Errorf("the submission table holds %d submissions, want the 3 graphs", len(table))
	}
	for k, r := range reqs {
		code, answer := post(s, r.path, r.body)
		if code != http.StatusOK || string(answer) != got[0][k] {
			t.Errorf("%s %.60s asked again: %d\n%s\nafter the traffic it answered\n%s", r.path, r.body, code, answer, got[0][k])
		}
	}
	if again, _ := s.submissions.Cut(0); !slices.Equal(again, table) {
		t.Errorf("asking again moved the submission table:\n%v\nwas\n%v", again, table)
	}
}

// TestScheduleFieldIsMarshalJSON: the schedule inside an /optimize body is
// Schedule.MarshalJSON's bytes, which is compact, so the answer renders it
// in one pass.
func TestScheduleFieldIsMarshalJSON(t *testing.T) {
	s := NewServer(Config{})
	for _, c := range []struct {
		body []byte
		g    *graph.Graph
	}{
		{mustMarshal(t, OptimizeRequest{Model: "inception"}), models.InceptionV3(1)},
		{mustMarshal(t, OptimizeRequest{Graph: graphJSON(t, models.SqueezeNet(1))}), models.SqueezeNet(1)},
	} {
		raw, err := searched(t, s, c.g).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // the searching answer, then the rendered one
			opt, _, err := optimizeOK(s, c.body)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(opt.Schedule, raw) {
				t.Errorf("%s cached=%v: the schedule field is\n%s\nMarshalJSON is\n%s", opt.Model, opt.Cached, opt.Schedule, raw)
			}
		}
	}
}

// TestLargeBodyBufferIsNotPooled: a body that grows its buffer past the
// keep bound is answered, and its buffer does not go back to the pool,
// where it would stay resident.
func TestLargeBodyBufferIsNotPooled(t *testing.T) {
	s := NewServer(Config{})
	body := mustMarshal(t, OptimizeRequest{Graph: graphJSON(t, models.SqueezeNet(1))})
	big := append(append(body[:len(body)-1:len(body)-1], bytes.Repeat([]byte(" "), 1<<20)...), '}')
	if code, answer := post(s, "/optimize", big); code != http.StatusOK {
		t.Fatalf("a 1 MB submission: %d %s", code, answer)
	}
	b := bodies.Get().(*bytes.Buffer)
	defer bodies.Put(b)
	if b.Cap() > maxPresizeBytes+bytes.MinRead {
		t.Errorf("the pool holds a %d-byte buffer, keep bound %d", b.Cap(), maxPresizeBytes+bytes.MinRead)
	}
}
