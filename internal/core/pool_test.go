//go:build go1.24

package core

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"ios/internal/blockcache"
	"ios/internal/models"
)

// TestPooledScratchHoldsNoGraph: a search's scratch goes back to the pool,
// which keeps it through one collection, holding nothing of the graph — no
// engine, block or profiler on a worker, no node in its measurement buffers —
// so once the search has returned, one collection frees the graph. Searched
// blocks and block-cache hits alike, on parallel engines.
func TestPooledScratchHoldsNoGraph(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cache := blockcache.NewCache()
	for _, pass := range []string{"searched", "cached"} {
		g := models.InceptionV3(1)
		node := weak.Make(g.Nodes[len(g.Nodes)-1])
		if _, err := OptimizeContext(context.Background(), g, v100Profiler(), Options{Workers: 4}.WithBlockCache(cache)); err != nil {
			t.Fatal(err)
		}
		g = nil
		runtime.GC()
		if node.Value() != nil {
			t.Errorf("%s: the graph outlived its search and a collection: a pooled scratch holds it", pass)
		}
	}
}
