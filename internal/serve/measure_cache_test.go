package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"ios/internal/core"
	"ios/internal/gpusim"
	"ios/internal/measure"
	"ios/internal/models"
	"ios/internal/profile"
)

// TestServerMeasureCacheSharedAcrossRequests: the structural measurement
// cache deduplicates simulator work across endpoints — after /optimize
// fills it, a /measure of the greedy baseline for the same model reuses
// the search's stage simulations (the sequential one was measured with the
// search) — and its counters surface in /stats.
func TestServerMeasureCacheSharedAcrossRequests(t *testing.T) {
	mc := measure.NewCache()
	s := NewServer(Config{Logf: t.Logf, MeasureCache: mc})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, _ := postJSON(t, ts.URL+"/optimize", map[string]any{"model": "squeezenet"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/optimize status %d", resp.StatusCode)
	}
	afterOptimize := mc.Stats()
	if afterOptimize.Misses == 0 {
		t.Fatal("optimize filled nothing into the measurement cache")
	}

	// The greedy baseline's stages are ones whose stream programs the
	// search already simulated: all hits, no misses.
	resp, _ = postJSON(t, ts.URL+"/measure", map[string]any{"model": "squeezenet", "baseline": "greedy"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/measure status %d", resp.StatusCode)
	}
	afterMeasure := mc.Stats()
	if afterMeasure.Misses != afterOptimize.Misses {
		t.Errorf("baseline measurement re-simulated %d fingerprints the search already measured",
			afterMeasure.Misses-afterOptimize.Misses)
	}
	if afterMeasure.Hits <= afterOptimize.Hits {
		t.Error("baseline measurement produced no cache hits")
	}

	// /stats reports the same counters.
	res, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(res.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.MeasureCache.Misses != afterMeasure.Misses || stats.MeasureCache.Hits < afterMeasure.Hits {
		t.Errorf("/stats measure_cache %+v inconsistent with cache %+v", stats.MeasureCache, afterMeasure)
	}
	if stats.MeasureCache.Size == 0 {
		t.Error("/stats reports an empty measurement cache after a search")
	}
}

// TestServerMemoKeepsDevicesApart: a server measures every device through
// one cache, whose keys embed the device model. After Figure 2 on the
// V100, the same block on the K80 must measure stages of its own, not
// read the V100's, and return the schedule a bare K80 search finds.
func TestServerMemoKeepsDevicesApart(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}))
	defer ts.Close()
	var k80 OptimizeResponse
	for _, dev := range []string{"v100", "k80"} {
		resp, body := postJSON(t, ts.URL+"/optimize", map[string]any{"model": "fig2", "device": dev})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: /optimize status %d: %s", dev, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &k80); err != nil {
			t.Fatal(err)
		}
	}
	if k80.Search.Measurements == 0 {
		t.Fatal("the K80 search served its latencies from the V100's entries")
	}
	bare, err := core.OptimizeContext(context.Background(), models.Figure2Block(1), profile.New(gpusim.TeslaK80), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	indented, err := bare.Schedule.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, indented); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k80.Schedule, want.Bytes()) {
		t.Errorf("the K80 answer after a V100 search is\n%s\na bare K80 search finds\n%s", k80.Schedule, want.Bytes())
	}
}

// TestServerMeasureCacheDefaultsToPrivate: a server without an explicit
// measurement cache gets one of its own, bounded at
// DefaultMeasureCacheSize, and an explicit one is used as given.
func TestServerMeasureCacheDefaultsToPrivate(t *testing.T) {
	a, b := NewServer(Config{}), NewServer(Config{})
	if a.MeasureCache() == b.MeasureCache() {
		t.Fatal("two default servers share a measurement cache")
	}
	own := measure.NewCache()
	if c := NewServer(Config{MeasureCache: own}); c.MeasureCache() != own {
		t.Fatal("explicit Config.MeasureCache ignored")
	}
	if raceEnabled {
		t.Skip("the overfill runs on one goroutine; under the race detector it only costs seconds")
	}
	// An eighth more stages than the bound, which the cache sheds back to:
	// two streams of one kernel each out of side distinct signatures (a
	// new stream per stage would fill the dictionary's stream table, which
	// the bound caps too, before the cache).
	mc := a.MeasureCache()
	const side = 600
	kernel := func(i int) gpusim.Kernel {
		return gpusim.Kernel{FLOPs: float64(i + 1), Bytes: 1, Blocks: 1, WarpsPerBlock: 1}
	}
	ctx := measure.Context(gpusim.TeslaV100, 0)
	var long, key []byte
	for i := 0; i < DefaultMeasureCacheSize*9/8; i++ {
		long = measure.AppendStreams(append(long[:0], ctx...), []gpusim.Stream{{kernel(i / side)}, {kernel(i % side)}})
		var ok bool
		if key, ok = mc.Intern(key[:0], long); !ok {
			t.Fatalf("stage %d cannot be keyed", i)
		}
		_, claim, _ := mc.GetOrBegin(nil, key)
		claim.Commit(1)
	}
	if n := mc.Len(); n != DefaultMeasureCacheSize {
		t.Errorf("overfilled default measurement cache holds %d entries, want its bound %d", n, DefaultMeasureCacheSize)
	}
	if b.MeasureCache().Len() != 0 {
		t.Error("filling one default server's measurement cache filled another's")
	}
}

// TestServerWarmRestartFromFile: a server loading a persisted cache
// re-optimizes a model the previous process served without a single
// simulator invocation.
func TestServerWarmRestartFromFile(t *testing.T) {
	path := t.TempDir() + "/measure.json"

	first := measure.NewCache()
	s1 := NewServer(Config{MeasureCache: first})
	ts1 := httptest.NewServer(s1)
	resp, _ := postJSON(t, ts1.URL+"/optimize", map[string]any{"model": "fig2"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/optimize status %d", resp.StatusCode)
	}
	ts1.Close()
	if err := first.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	second := measure.NewCache()
	if n, err := second.LoadFile(path); err != nil || n == 0 {
		t.Fatalf("LoadFile: n=%d err=%v", n, err)
	}
	s2 := NewServer(Config{MeasureCache: second})
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	resp, body := postJSON(t, ts2.URL+"/optimize", map[string]any{"model": "fig2"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted /optimize status %d", resp.StatusCode)
	}
	var out OptimizeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Search.Measurements != 0 {
		t.Errorf("warm restart still ran %d simulator measurements", out.Search.Measurements)
	}
	if st := second.Stats(); st.Misses != 0 {
		t.Errorf("warm restart missed the loaded cache %d times", st.Misses)
	}
}
