package cluster

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// serveGet serves GET /cache/<kind>/<fp>: the single canonical entry in
// wire form, 404 when this node has not finished it.
func (x *exchange[V, W]) serveGet(w http.ResponseWriter, r *http.Request) {
	n := x.n
	key, ok := n.singleKey(w, r, "/cache/"+x.kind+"/")
	if !ok {
		return
	}
	entries := x.cache.Export([][]byte{key})
	if len(entries) == 0 {
		n.failJSON(w, http.StatusNotFound, fmt.Errorf("%s entry not cached here", x.noun))
		return
	}
	n.writeJSON(w, map[string]any{"entries": entries})
}

// handlePush serves POST /cluster/push: merge a peer's wire entries into
// the local caches. Merge validates each batch whole before inserting —
// a malformed push is rejected entirely with a 400 and changes nothing.
func (n *Node) handlePush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		n.failJSON(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	var preq pushRequest
	if err := json.NewDecoder(r.Body).Decode(&preq); err != nil { //ioslint:untrusted peer push request JSON
		n.failJSON(w, http.StatusBadRequest, fmt.Errorf("parse push: %v", err))
		return
	}
	blockAdded, err := n.blocks.cache.Merge(preq.Block)
	if err != nil {
		n.failJSON(w, http.StatusBadRequest, err)
		return
	}
	measureAdded, err := n.measure.cache.Merge(preq.Measure)
	if err != nil {
		n.failJSON(w, http.StatusBadRequest, err)
		return
	}
	n.blocks.merged.Add(int64(blockAdded))
	n.measure.merged.Add(int64(measureAdded))
	n.writeJSON(w, pushResponse{BlockAdded: blockAdded, MeasureAdded: measureAdded})
}

// handleStats serves GET /cluster/stats.
func (n *Node) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		n.failJSON(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	n.writeJSON(w, n.Stats())
}

// singleKey parses the fingerprint segment of a single-entry GET.
func (n *Node) singleKey(w http.ResponseWriter, r *http.Request, prefix string) ([]byte, bool) {
	if r.Method != http.MethodGet {
		n.failJSON(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return nil, false
	}
	fp := strings.TrimPrefix(r.URL.Path, prefix)
	if fp == "" || strings.Contains(fp, "/") {
		n.failJSON(w, http.StatusBadRequest, fmt.Errorf("use GET %s<fingerprint>", prefix))
		return nil, false
	}
	raw, err := base64.RawURLEncoding.DecodeString(fp)
	if err != nil {
		n.failJSON(w, http.StatusBadRequest, fmt.Errorf("bad fingerprint: %v", err))
		return nil, false
	}
	return raw, true
}

func (n *Node) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		n.logf("cluster %s: encode response: %v", n.cfg.Self, err)
	}
}

func (n *Node) failJSON(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
