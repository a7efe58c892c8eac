package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"ios/internal/blockcache"
)

// TestServerBlockCacheSharedAcrossServers: the whole-block schedule cache
// deduplicates block DP searches across servers sharing it — a second
// server (own schedule cache, so its search actually runs) optimizing the
// same model claims no new fingerprints — and its counters surface in
// /stats.
func TestServerBlockCacheSharedAcrossServers(t *testing.T) {
	bc := blockcache.NewCache()
	// Each server gets its own fresh schedule cache (Config.Cache nil), so
	// the second request reaches the search layer instead of being served
	// whole; only the block cache is shared.
	s1 := NewServer(Config{Logf: t.Logf, BlockCache: bc})
	ts1 := httptest.NewServer(s1)
	defer ts1.Close()

	resp, _ := postJSON(t, ts1.URL+"/optimize", map[string]any{"model": "squeezenet"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/optimize status %d", resp.StatusCode)
	}
	cold := bc.Stats()
	if cold.Misses == 0 {
		t.Fatal("optimize filled nothing into the block cache")
	}

	s2 := NewServer(Config{Logf: t.Logf, BlockCache: bc})
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	resp, _ = postJSON(t, ts2.URL+"/optimize", map[string]any{"model": "squeezenet"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second server /optimize status %d", resp.StatusCode)
	}
	warm := bc.Stats()
	if warm.Misses != cold.Misses {
		t.Errorf("second server re-searched %d blocks the first already solved", warm.Misses-cold.Misses)
	}
	if warm.Hits <= cold.Hits {
		t.Error("second server's optimize produced no block-cache hits")
	}

	// /stats reports the same counters.
	res, err := http.Get(ts2.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(res.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.BlockCache.Misses != warm.Misses || stats.BlockCache.Hits < warm.Hits {
		t.Errorf("/stats block_cache %+v inconsistent with cache %+v", stats.BlockCache, warm)
	}
	if stats.BlockCache.Size == 0 {
		t.Error("/stats reports an empty block cache after a search")
	}
}

// TestServerBlockCacheDefaultsToPrivate: a server without an explicit
// block cache gets one of its own, bounded at DefaultBlockCacheSize, and an
// explicit one is used as given.
func TestServerBlockCacheDefaultsToPrivate(t *testing.T) {
	a, b := NewServer(Config{}), NewServer(Config{})
	if a.BlockCache() == b.BlockCache() {
		t.Fatal("two default servers share a block cache")
	}
	// Half as many again as the bound, which the cache sheds back to.
	bc := a.BlockCache()
	for i := 0; i < DefaultBlockCacheSize*3/2; i++ {
		_, claim, _ := bc.GetOrBegin(nil, []byte(fmt.Sprintf("k%d", i)))
		claim.Commit(&blockcache.Entry{Ops: 1})
	}
	if n := bc.Len(); n != DefaultBlockCacheSize {
		t.Errorf("overfilled default block cache holds %d entries, want its bound %d", n, DefaultBlockCacheSize)
	}
	if b.BlockCache().Len() != 0 {
		t.Error("filling one default server's block cache filled another's")
	}
	own := blockcache.NewCache()
	if c := NewServer(Config{BlockCache: own}); c.BlockCache() != own {
		t.Fatal("explicit Config.BlockCache ignored")
	}
}

// TestServerBlockCacheWarmRestart: a server loading a persisted block cache
// re-optimizes a model the previous process served without a single block
// DP search — the warm-restart path of iosserve -block-cache.
func TestServerBlockCacheWarmRestart(t *testing.T) {
	path := t.TempDir() + "/blocks.json"

	first := blockcache.NewCache()
	s1 := NewServer(Config{BlockCache: first})
	ts1 := httptest.NewServer(s1)
	resp, _ := postJSON(t, ts1.URL+"/optimize", map[string]any{"model": "fig2"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/optimize status %d", resp.StatusCode)
	}
	ts1.Close()
	if err := first.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	second := blockcache.NewCache()
	if n, err := second.LoadFile(path); err != nil || n == 0 {
		t.Fatalf("LoadFile: n=%d err=%v", n, err)
	}
	s2 := NewServer(Config{BlockCache: second})
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	resp, _ = postJSON(t, ts2.URL+"/optimize", map[string]any{"model": "fig2"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted /optimize status %d", resp.StatusCode)
	}
	if st := second.Stats(); st.Misses != 0 {
		t.Errorf("warm restart still ran %d block searches", st.Misses)
	}
}
