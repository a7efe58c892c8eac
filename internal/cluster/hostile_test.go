package cluster

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"ios/internal/blockcache"
	"ios/internal/plan"
	"ios/internal/serve"
	"ios/internal/sfcache"
)

// fakePeer answers GET /cluster/snapshot, GET /plans and GET /plans/<…>
// with whatever bodies the test set last; an unset path is a 404.
type fakePeer struct {
	mu                       sync.Mutex
	snapshot, listing, aPlan []byte
}

func (p *fakePeer) set(snapshot, listing, aPlan []byte) {
	p.mu.Lock()
	p.snapshot, p.listing, p.aPlan = snapshot, listing, aPlan
	p.mu.Unlock()
}

func (p *fakePeer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	var body []byte
	switch {
	case r.URL.Path == "/cluster/snapshot":
		body = p.snapshot
	case r.URL.Path == "/plans":
		body = p.listing
	case strings.HasPrefix(r.URL.Path, "/plans/"):
		body = p.aPlan
	}
	p.mu.Unlock()
	if body == nil {
		http.NotFound(w, r)
		return
	}
	w.Write(body)
}

// zooPlan builds a zoo model's batch plan at batches 1 and 2 on a fresh
// server and returns it with its GET /plans listing entry and its
// persisted bytes.
func zooPlan(t *testing.T, model string) (*plan.Plan, serve.PlanInfo, []byte) {
	t.Helper()
	srv := serve.NewServer(serve.Config{})
	if err := srv.WarmPlans(context.Background(), []string{model}, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	p := srv.Plans()[0]
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return p, serve.PlanInfo{Model: p.Model, Device: p.Device, Options: p.Opts, Batches: p.Batches()}, buf.Bytes()
}

func listing(t *testing.T, infos ...serve.PlanInfo) []byte {
	t.Helper()
	b, err := json.Marshal(infos)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLyingPeerPlanIsRefused: a peer lists plan A and, at A's URL, serves
// plan B — valid, but not what was asked for. Registered, B would win
// every lookup under its own key on this node; under A's it would serve
// the wrong model. PullPlans fails and neither plan is registered.
func TestLyingPeerPlanIsRefused(t *testing.T) {
	_, a, _ := zooPlan(t, "fig2")
	_, b, bBytes := zooPlan(t, "inception-e")
	peer := &fakePeer{}
	peer.set(nil, listing(t, a), bBytes)
	ps := httptest.NewServer(peer)
	defer ps.Close()
	n, srv := soloNode(t, ps.Client())
	if err := n.SetMembers([]Member{{ID: "self"}, {ID: "liar", URL: ps.URL}}); err != nil {
		t.Fatal(err)
	}

	if added, err := n.PullPlans(context.Background()); err == nil || added != 0 {
		t.Errorf("PullPlans from a peer serving B at A's URL = (%d, %v), want an error and nothing added", added, err)
	}
	for _, info := range []serve.PlanInfo{a, b} {
		if srv.LookupPlan(info.Model, info.Device, info.Options) != nil {
			t.Errorf("plan %s is registered after the lying pull", info.Model)
		}
	}
	if got := len(srv.Plans()); got != 0 {
		t.Errorf("%d plans registered after the lying pull, want 0", got)
	}
}

// framesOf is a GET /cluster/snapshot body holding the given wire entries
// as they are, valid or not: the frames, count and checksum are right, so
// whatever the node refuses it refuses for an entry. The header's version
// is a real snapshot's.
func framesOf(t *testing.T, entries ...blockcache.WireEntry) []byte {
	t.Helper()
	version := binary.LittleEndian.Uint32(snapshotOf(t)[4:8])
	rows := make([]sfcache.Row[blockcache.WireEntry], len(entries))
	for i, we := range entries {
		rows[i].Val = we
	}
	var buf bytes.Buffer
	err := sfcache.WriteFrames(&buf, "test", version, nil, rows, func(dst []byte, _ string, we blockcache.WireEntry) ([]byte, error) {
		rec, err := json.Marshal(we)
		return append(dst, rec...), err
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// editPlan returns a persisted plan with edit applied to its JSON.
func editPlan(t *testing.T, good []byte, edit func(m map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(good, &m); err != nil {
		t.Fatal(err)
	}
	edit(m)
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// editFirstGroup returns a persisted plan with edit applied to the first
// group of its batch-1 schedule, a list of node names.
func editFirstGroup(t *testing.T, good []byte, edit func(names []any) []any) []byte {
	return editPlan(t, good, func(m map[string]any) {
		groups := m["schedules"].([]any)[0].(map[string]any)["stages"].([]any)[0].(map[string]any)["groups"].([]any)
		groups[0] = edit(groups[0].([]any))
	})
}

// TestHostilePeerBytesAreRefused feeds hostile bodies to the three paths
// by which peer bytes reach a node — POST /cluster/push, the snapshot
// pull, and the plan listing and plan pull. Each is refused (a 4xx or an
// error), and the node's block cache and plan registry are unchanged:
// every push and snapshot below also carries a valid new entry, which an
// all-or-nothing decoder must not keep either.
func TestHostilePeerBytesAreRefused(t *testing.T) {
	_, aInfo, aPlan := zooPlan(t, "fig2")
	own, _, _ := zooPlan(t, "inception-e")
	peer := &fakePeer{}
	ps := httptest.NewServer(peer)
	defer ps.Close()
	n, srv := soloNode(t, ps.Client())
	if err := n.SetMembers([]Member{{ID: "self"}, {ID: "peer", URL: ps.URL}}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.BlockCache().Load(bytes.NewReader(snapshotOf(t, blockEntry("held", 2)))); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterPlan(own); err != nil {
		t.Fatal(err)
	}

	fresh := blockEntry("fresh", 3)
	wrongVersion := blockEntry("v", 1)
	wrongVersion.Key = base64.RawURLEncoding.EncodeToString([]byte{blockcache.KeyVersion + 1, 'v'})
	outOfRange := blockEntry("range", 2)
	outOfRange.Stages[0].Groups = [][]int{{0, 2}}
	twice := blockEntry("twice", 2)
	twice.Stages[0].Groups = [][]int{{0, 0}}
	bad := map[string]blockcache.WireEntry{"wrong key version": wrongVersion, "op index out of range": outOfRange, "op twice": twice}
	pushOf := func(entries ...blockcache.WireEntry) []byte {
		b, err := json.Marshal(pushRequest{Block: entries})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	validPush, validSnapshot := pushOf(fresh), snapshotOf(t, fresh, blockEntry("fresh2", 1))

	type hostile struct{ path, name string }
	cases := map[hostile][]byte{
		{"push", "malformed JSON"}: []byte(`{"block": [{"key": `),
		{"push", "truncated"}:      validPush[:len(validPush)/2],

		{"snapshot", "malformed"}:        []byte("not a cache file"),
		{"snapshot", "truncated frames"}: validSnapshot[:len(validSnapshot)/2],
		{"snapshot", "flipped byte"}: func() []byte {
			b := bytes.Clone(validSnapshot)
			b[len(b)/2] ^= 1
			return b
		}(),

		{"listing", "malformed JSON"}: []byte(`[{"model": "fig2", `),
		{"plan", "malformed JSON"}:    []byte(`{"version": 1, "model": `),
		{"plan", "wrong version"}:     editPlan(t, aPlan, func(m map[string]any) { m["version"] = 2 }),
		{"plan", "truncated"}:         aPlan[:len(aPlan)/2],
		{"plan", "unknown op"}:        editFirstGroup(t, aPlan, func(names []any) []any { return append(names[1:], "no-such-op") }),
		{"plan", "op twice"}:          editFirstGroup(t, aPlan, func(names []any) []any { return append(names, names[0]) }),
		{"plan", "fails Validate"}: editPlan(t, aPlan, func(m map[string]any) {
			m["latency_seconds"].([]any)[0].([]any)[1] = -1
		}),
	}
	for name, we := range bad {
		cases[hostile{"push", name}] = pushOf(fresh, we)
		cases[hostile{"snapshot", name}] = framesOf(t, fresh, we)
	}

	// deliver sends body down one path and reports whether it was refused.
	ctx := context.Background()
	deliver := func(path string, body []byte) (refused bool, detail string) {
		switch path {
		case "push":
			rec := post(n, http.MethodPost, "/cluster/push", string(body))
			return rec.Code/100 == 4, strings.TrimSpace(rec.Body.String())
		case "snapshot":
			peer.set(body, nil, nil)
			added, err := n.pullSnapshot(ctx, ps.URL)
			return err != nil, fmt.Sprintf("added %d, err %v", added, err)
		case "listing":
			peer.set(nil, body, aPlan)
		case "plan":
			peer.set(nil, listing(t, aInfo), body)
		}
		added, err := n.PullPlans(ctx)
		return err != nil, fmt.Sprintf("added %d, err %v", added, err)
	}
	type state struct {
		blocks []blockcache.WireEntry
		plans  []*plan.Plan
	}
	stateOf := func() state {
		blocks, _ := srv.BlockCache().Snapshot(0)
		return state{blocks, srv.Plans()}
	}
	before := stateOf()
	for c, body := range cases {
		if refused, detail := deliver(c.path, body); !refused {
			t.Errorf("%s, %s: accepted (%s), want a 4xx or an error", c.path, c.name, detail)
		}
		if after := stateOf(); !reflect.DeepEqual(after, before) {
			t.Errorf("%s, %s: the node's block cache or plans changed: %d entries and %d plans, want %d and %d",
				c.path, c.name, len(after.blocks), len(after.plans), len(before.blocks), len(before.plans))
			before = after
		}
	}

	// Each path takes its valid bodies, so the refusals above were for
	// what the cases broke.
	for path, body := range map[string][]byte{"push": validPush, "snapshot": validSnapshot, "plan": aPlan} {
		if refused, detail := deliver(path, body); refused {
			t.Errorf("%s: a valid body was refused: %s", path, detail)
		}
	}
	if got, want := srv.BlockCache().Len(), 3; got != want {
		t.Errorf("after the valid bodies the cache holds %d entries, want %d", got, want)
	}
	if srv.LookupPlan(aInfo.Model, aInfo.Device, aInfo.Options) == nil {
		t.Error("the valid plan pull registered nothing")
	}
}

// TestHostileBlockFileJoinsAFleet: a node whose block-cache file holds
// Inception V3's searched entries with their stages reversed — every
// operator index in range and scheduled once, so the file loads, but an
// entry of more than one dependent stage now runs an edge backwards —
// joins a fleet and pushes them to every peer. Every node still answers
// /optimize 200 with the schedule a single node searches: each refuses the
// hits such an entry gives and searches the block locally.
func TestHostileBlockFileJoinsAFleet(t *testing.T) {
	ctx := context.Background()
	solo := serve.NewServer(serve.Config{})
	body := []byte(`{"model":"inception_v3"}`)
	w := httptest.NewRecorder()
	solo.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(body)))
	var want serve.OptimizeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &want); err != nil || w.Code != http.StatusOK {
		t.Fatalf("single node: %d %s", w.Code, w.Body)
	}
	entries, _ := solo.BlockCache().Snapshot(0)
	reversed := 0
	for i := range entries {
		st := slices.Clone(entries[i].Stages)
		slices.Reverse(st)
		if entries[i].Stages = st; len(st) > 1 {
			reversed++
		}
	}
	file := t.TempDir() + "/hostile.cache"
	hostile := blockcache.NewCache()
	if _, err := hostile.Merge(entries); err != nil {
		t.Fatal(err)
	}
	if err := hostile.SaveFile(file); err != nil {
		t.Fatal(err)
	}

	h, err := StartHarness(ctx, HarnessConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	bc := blockcache.NewCache()
	if _, err := bc.LoadFile(file); err != nil {
		t.Fatalf("the hostile file does not load: %v", err)
	}
	if _, err := h.JoinWith(ctx, bc); err != nil {
		t.Fatal(err)
	}
	if pushed, err := h.SyncAll(ctx); err != nil || pushed < 2*len(entries) {
		t.Fatalf("pushed %d entries (%v), want the file's %d to each of 2 peers", pushed, err, len(entries))
	}
	t.Logf("%d of %d entries reversed", reversed, len(entries))
	for _, hn := range h.Nodes() {
		if got := hn.Server.BlockCache().Len(); got < len(entries) {
			t.Fatalf("%s holds %d block entries, want the file's %d", hn.ID, got, len(entries))
		}
		got, err := postOptimize(h.Client(), hn.URL, "inception_v3", 1)
		if err != nil {
			t.Fatalf("%s: %v", hn.ID, err)
		}
		if !bytes.Equal(got.Schedule, want.Schedule) {
			t.Errorf("%s answers a schedule other than the single node's", hn.ID)
		}
		resp, err := h.Client().Get(hn.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var stats serve.StatsResponse
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if r := stats.BlockCache.Rejected; r == 0 || r > int64(reversed) || stats.BlockCache.Misses != r {
			t.Errorf("%s's /stats shows %d block entries rejected and %d searched, want the same count, between 1 and the %d reversed",
				hn.ID, r, stats.BlockCache.Misses, reversed)
		}
	}
}
