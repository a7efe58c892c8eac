package ios_test

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"ios"
)

// ExampleServer mounts the schedule-serving HTTP API in-process and asks
// it to optimize the paper's Figure-2 block: the first request runs the
// IOS search, the second is answered from the schedule cache.
func ExampleServer() {
	srv := httptest.NewServer(ios.NewServer(ios.ServerConfig{}))
	defer srv.Close()

	ask := func() ios.OptimizeResponse {
		resp, err := http.Post(srv.URL+"/optimize", "application/json",
			strings.NewReader(`{"model": "fig2"}`))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var out ios.OptimizeResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			log.Fatal(err)
		}
		return out
	}

	first, second := ask(), ask()
	fmt.Printf("model %s on %s: %d stages, faster than sequential: %v\n",
		first.Model, first.Device, first.Summary.Stages, first.Speedup > 1)
	fmt.Printf("first cached: %v, second cached: %v\n", first.Cached, second.Cached)
	// Output:
	// model fig2 on Tesla V100: 3 stages, faster than sequential: true
	// first cached: false, second cached: true
}
