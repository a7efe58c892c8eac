package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
)

// modelKey names one (zoo model, batch) the benchmark asks for.
type modelKey struct {
	model string
	batch int
}

func (k modelKey) String() string { return fmt.Sprintf("%s/b%d", k.model, k.batch) }

type topoKind int

const (
	topoSingle  topoKind = iota // a fresh server per round; cold = first answers
	topoRestart                 // cold = a server restarted from saved cache files
	topoFleet                   // cold = a node joining a warm coordinated fleet
)

type mixKind int

const (
	mixHits    mixKind = iota // the cold list again, now cached
	mixServing                // the serving mix described on servingShares
)

// workload is one traffic scenario. Everything the program under test sees is
// derived from these fields and the seed.
type workload struct {
	name string
	why  string
	topo topoKind
	// named are answered by model name; graphs are the same models at batch 1
	// submitted as graph JSON after the named ones (schedule-cache miss,
	// block-cache hit).
	named  []modelKey
	graphs []string
	// planModel, when set, has a batch plan over planBatches registered, and
	// every by-name request for it is answered by the plan.
	planModel string
	mix       mixKind
	// warmPerClient is the fixed number of requests each closed-loop client
	// sends per warm window.
	warmPerClient int
	// boundaryTicks is how many reference ticks run between phases (see clock).
	boundaryTicks int
}

var (
	smallModels = []string{"inception", "squeezenet", "resnet34", "resnet50", "vgg16", "mobilenetv2", "shufflenet", "inception-e", "fig2"}
	allModels   = append([]string{"nasnet", "randwire"}, smallModels...)
	planBatches = []int{1, 8, 32, 128}
)

// fleetSize is how many coordinated nodes fleet_join's set-up starts; the
// joiner of each round is one more.
const fleetSize = 3

func cross(models []string, batches ...int) []modelKey {
	var out []modelKey
	for _, m := range models {
		for _, b := range batches {
			out = append(out, modelKey{m, b})
		}
	}
	return out
}

var workloads = []*workload{
	{
		name: "search_deep",
		why:  "nasnet+randwire cold: core enumeration and gpusim do >95% of the work, serve/cluster/blockcache almost none",
		topo: topoSingle, named: cross([]string{"nasnet", "randwire"}, 1),
		mix: mixHits, warmPerClient: 1500, boundaryTicks: 3,
	},
	{
		name: "search_wide",
		why:  "9 small models x 3 batches + 9 graph-JSON submits: hundreds of tiny blocks, so per-request and per-block fixed cost dominates and per-transition cost is nil",
		topo: topoSingle, named: cross(smallModels, 1, 16, 64), graphs: smallModels,
		mix: mixHits, warmPerClient: 500, boundaryTicks: 1,
	},
	{
		name: "serve_warm",
		why:  "restart from saved caches, then the serving mix: serve decode/cache/encode, schedule JSON and plan routing work while the DP does nothing",
		topo: topoRestart, named: append(cross([]string{"nasnet", "randwire"}, 1), cross(smallModels, 1, 16, 64)...),
		planModel: "inception",
		mix:       mixServing, warmPerClient: 4000, boundaryTicks: 3,
	},
	{
		name: "fleet_join",
		why:  "a 4th node joins 3 warm ones over loopback: cluster ring/fetch/validate, blockcache wire decode+rebind and measure fetches dominate, zero DP",
		topo: topoFleet, named: cross(allModels, 1),
		planModel: "inception",
		mix:       mixServing, warmPerClient: 1500, boundaryTicks: 2,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// requests -------------------------------------------------------------

type reqKind int

const (
	kindOptimize        reqKind = iota // by name, answered from the schedule cache once warm
	kindOptimizeGraph                  // graph submitted by value
	kindOptimizePlan                   // by name, answered by a registered batch plan
	kindMeasureBaseline                // /measure sequential or greedy
	kindMeasureSchedule                // /measure with a submitted schedule
	kindGet                            // GET /stats, /models, /plans
	numKinds
)

var kindNames = [numKinds]string{"optimize_hit", "optimize_graph", "optimize_plan", "measure_baseline", "measure_schedule", "stats"}

// request is one pre-encoded call. golden names the table entry its answer
// must match ("" = status and JSON shape only).
type request struct {
	kind   reqKind
	method string
	path   string
	body   []byte
	golden string
	key    modelKey
	// node is which of a fleet's nodes the request goes to (modulo the fleet's
	// size). It is fixed per position in the bag, before the seed shuffles the
	// order, so every seed sends each node the same requests.
	node int
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of strings, ints and RawMessage reach here
	}
	return b
}

func (w *workload) optimizeRequest(k modelKey) request {
	r := request{
		kind: kindOptimize, method: http.MethodPost, path: "/optimize", key: k,
		body:   mustJSON(map[string]any{"model": k.model, "batch": k.batch}),
		golden: "optimize/" + k.String(),
	}
	if k.model == w.planModel {
		r.kind, r.golden = kindOptimizePlan, "plan/"+k.String()
	}
	return r
}

// coldList is what a cold target is asked: the named keys, then the graph
// submissions (which must come after their named twins so they hit the block
// cache, not the DP). The seed orders each part; seed 0 means listing order.
func (w *workload) coldList(seed int64, graphJSON map[string]json.RawMessage) []request {
	named := make([]request, 0, len(w.named))
	for _, k := range w.named {
		named = append(named, w.optimizeRequest(k))
	}
	var graphs []request
	for _, m := range w.graphs {
		graphs = append(graphs, request{
			kind: kindOptimizeGraph, method: http.MethodPost, path: "/optimize", key: modelKey{m, 1},
			body:   mustJSON(map[string]any{"graph": graphJSON[m]}),
			golden: "optimize/" + modelKey{m, 1}.String(),
		})
	}
	if seed != 0 {
		shuffle(named, newRNG(seed, 0xc01d))
		shuffle(graphs, newRNG(seed, 0x94a9))
	}
	return append(named, graphs...)
}

// servingShares is the warm mix of serve_warm and fleet_join, in requests per
// 1000: what a schedule server fronting a model zoo sees once warm.
var servingShares = [numKinds]int{
	kindOptimize:        700, // zipf(s=1.1) over the workload's named keys
	kindOptimizePlan:    100, // the plan model at every batch 1..128
	kindMeasureBaseline: 80,  // sequential and greedy over the named keys
	kindMeasureSchedule: 70,  // a previously returned schedule, re-measured
	kindGet:             50,  // /stats, /models, /plans in turn
}

// warmMultiset is the fixed bag of requests one client sends per window. The
// bag does not depend on the seed — only its order does — so allocation and
// byte counts per window are the same for every seed and the timed metrics
// differ only by ordering effects.
func (w *workload) warmMultiset(graphJSON, schedules map[string]json.RawMessage) []request {
	n := w.warmPerClient
	if w.mix == mixHits {
		cold := w.coldList(0, graphJSON)
		out := make([]request, n)
		for i := range out {
			out[i] = cold[i%len(cold)]
		}
		return out
	}

	var hits []request
	for _, k := range w.named {
		if k.model != w.planModel {
			hits = append(hits, w.optimizeRequest(k))
		}
	}
	weights := make([]float64, len(hits))
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), 1.1)
	}
	var out []request
	for i, c := range apportion(n*servingShares[kindOptimize]/1000, weights) {
		for j := 0; j < c; j++ {
			out = append(out, hits[i])
		}
	}
	nPlan := n * servingShares[kindOptimizePlan] / 1000
	for i := 0; i < nPlan; i++ {
		out = append(out, w.optimizeRequest(modelKey{w.planModel, 1 + i%128}))
	}
	nBase := n * servingShares[kindMeasureBaseline] / 1000
	for i := 0; i < nBase; i++ {
		k := hits[(i/2)%len(hits)].key
		baseline := [2]string{"sequential", "greedy"}[i%2]
		out = append(out, request{
			kind: kindMeasureBaseline, method: http.MethodPost, path: "/measure", key: k,
			body:   mustJSON(map[string]any{"model": k.model, "batch": k.batch, "baseline": baseline}),
			golden: "measure/" + k.String() + "/" + baseline,
		})
	}
	nSched := n * servingShares[kindMeasureSchedule] / 1000
	for i := 0; i < nSched; i++ {
		k := hits[i%len(hits)].key
		out = append(out, request{
			kind: kindMeasureSchedule, method: http.MethodPost, path: "/measure", key: k,
			body:   mustJSON(map[string]any{"model": k.model, "batch": k.batch, "schedule": schedules[k.String()]}),
			golden: "optimize/" + k.String(),
		})
	}
	for i := 0; len(out) < n; i++ {
		out = append(out, request{kind: kindGet, method: http.MethodGet, path: [3]string{"/stats", "/models", "/plans"}[i%3]})
	}
	return out
}

// clientSequence is client c's order through the bag. The bag lists each kind
// and key in runs, so striping nodes over positions gives every node an even
// share of every kind.
func clientSequence(bag []request, seed int64, c int) []request {
	out := append([]request(nil), bag...)
	for i := range out {
		out[i].node = i + c
	}
	shuffle(out, newRNG(seed, uint64(c)+1))
	return out
}

// apportion splits n into len(weights) whole parts proportional to weights by
// largest remainder, ties to the lower index.
func apportion(n int, weights []float64) []int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	out := make([]int, len(weights))
	type rem struct {
		i int
		r float64
	}
	rems := make([]rem, len(weights))
	left := n
	for i, w := range weights {
		exact := float64(n) * w / total
		out[i] = int(exact)
		left -= out[i]
		rems[i] = rem{i, exact - float64(out[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].r > rems[b].r })
	for i := 0; i < left; i++ {
		out[rems[i].i]++
	}
	return out
}

// rng is splitmix64: the request order must not depend on which Go release's
// math/rand the benchmark was built with.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func shuffle[T any](s []T, r *rng) {
	for i := len(s) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		s[i], s[j] = s[j], s[i]
	}
}

// sequenceDigest hashes every request a run would send, in order: the cold
// list, then each client's warm sequence.
func sequenceDigest(cold []request, clients [][]request) [32]byte {
	h := sha256.New()
	add := func(rs []request) {
		for _, r := range rs {
			fmt.Fprintf(h, "%s %s %d\n", r.method, r.path, len(r.body))
			h.Write(r.body)
		}
	}
	add(cold)
	for _, c := range clients {
		add(c)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
