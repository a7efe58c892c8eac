package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// handleSnapshot serves GET /cluster/snapshot: the whole block cache in
// the cache-file format (Save), which a joining node loads in one request.
func (n *Node) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		n.failJSON(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := n.blocks.Save(w); err != nil {
		n.logf("cluster %s: write snapshot: %v", n.cfg.Self, err)
	}
}

// handlePush serves POST /cluster/push: merge a peer's block wire entries
// into the local cache. The body is read whole under maxPeerBody (over it
// is a 413) and Merge validates the batch whole before inserting — a
// refused or malformed push changes nothing.
func (n *Node) handlePush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		n.failJSON(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPeerBody))
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		n.failJSON(w, code, fmt.Errorf("read push: %v", err))
		return
	}
	var preq pushRequest
	if err := json.Unmarshal(body, &preq); err != nil {
		n.failJSON(w, http.StatusBadRequest, fmt.Errorf("parse push: %v", err))
		return
	}
	added, err := n.blocks.Merge(preq.Block)
	if err != nil {
		n.failJSON(w, http.StatusBadRequest, err)
		return
	}
	n.mergedBlocks.Add(int64(added))
	n.writeJSON(w, pushResponse{BlockAdded: added})
}

// handleStats serves GET /cluster/stats.
func (n *Node) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		n.failJSON(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	n.writeJSON(w, n.Stats())
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
