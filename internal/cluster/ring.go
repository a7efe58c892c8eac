package cluster

import (
	"fmt"
	"sort"
	"strconv"
)

// DefaultReplicas is the virtual-node count per member.
const DefaultReplicas = 64

// Ring is a consistent-hash ring over member IDs with virtual nodes:
// ownership is a pure function of (member IDs, replicas, key), and adding
// or removing a member moves only the keys adjacent to its virtual points.
// Nodes no longer use it, since every node holds every block; it is kept
// only because the benchmark's cluster.ring_owner_ns probe calls NewRing,
// and it goes when bench/ is re-opened.
type Ring struct {
	points   []ringPoint // sorted by hash
	ids      []string    // sorted member IDs
	replicas int
}

type ringPoint struct {
	hash uint64
	id   string
}

// NewRing builds a ring over the given member IDs (order-insensitive;
// duplicates rejected) with the given virtual-node count per member
// (<=0 means DefaultReplicas).
func NewRing(ids []string, replicas int) (*Ring, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	for i, id := range sorted {
		if id == "" {
			return nil, fmt.Errorf("cluster: empty member ID")
		}
		if i > 0 && sorted[i-1] == id {
			return nil, fmt.Errorf("cluster: duplicate member ID %q", id)
		}
	}
	r := &Ring{ids: sorted, replicas: replicas, points: make([]ringPoint, 0, len(sorted)*replicas)}
	for _, id := range sorted {
		for v := 0; v < replicas; v++ {
			h := hash64([]byte(id + "#" + strconv.Itoa(v)))
			r.points = append(r.points, ringPoint{hash: h, id: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by ID so every member
		// computes the identical ring regardless of input order.
		return r.points[i].id < r.points[j].id
	})
	return r, nil
}

// Members returns the ring's member IDs, sorted.
func (r *Ring) Members() []string { return append([]string(nil), r.ids...) }

// Owner returns the member owning a key: the first virtual point at or
// after the key's hash, wrapping around.
func (r *Ring) Owner(key []byte) string { return r.Owners(key, 1)[0] }

// Owners returns up to n distinct members in ring order starting at the
// key's owner. The second entry is the owner's ring successor — exactly
// the member that owned this key before the owner joined, which makes it
// both the warm fallback for a joining owner and the failover target when
// the owner is unreachable.
func (r *Ring) Owners(key []byte, n int) []string {
	if n > len(r.ids) {
		n = len(r.ids)
	}
	if n <= 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		seen := false
		for _, id := range out {
			if id == p.id {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, p.id)
		}
	}
	return out
}

// hash64 is FNV-1a with the high bits folded back in (the same recipe the
// caches use for shard selection): cheap, stateless, and identical on
// every node — ring placement must agree fleet-wide, so this must never
// depend on process state the way maphash does.
func hash64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h ^ h>>32
}
