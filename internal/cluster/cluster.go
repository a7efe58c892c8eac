//ioslint:deterministic

// Package cluster shards the block-schedule caches of a fleet of
// serve.Server nodes by consistent hashing and exchanges warm entries
// between peers, so each distinct block DP search runs once cluster-wide
// instead of once per process.
//
// Every block-schedule cache entry has a canonical structural fingerprint
// (blockcache.Fingerprint); the fingerprint hashes onto a virtual-node ring
// that assigns each key an owning node, stable under membership changes
// (only keys adjacent to a joining or leaving node's virtual points move).
// A node that misses locally asks the owner (then the owner's ring
// successors, which are exactly the previous owners after a membership
// change) for the entry over HTTP before paying a DP search; a fetched
// block schedule passes the same structural validation as a persisted
// cache file and is rebound via blockcache.Rebind — the exchange is sound
// because fingerprints are structural and rebinding re-validates against
// the actual block. A background pusher streams locally searched entries
// to their owners using the cache's incremental Snapshot, so owners
// converge on the canonical copy of their key range and later fetches hit.
//
// Stage measurements do not travel. A peer round trip costs an order of
// magnitude more than the simulator run it would save, so the measurement
// cache is a node-local memo: a node that fetched a block schedule
// re-simulates the few stage latencies it reports, and gets the same bits
// because the simulator is deterministic. A backend whose measurements are
// expensive shares them in bulk (measure.Cache SaveFile/LoadFile,
// Snapshot/Merge), not per key.
//
// Peer failure never surfaces to clients: a dead or unreachable peer costs
// a bounded number of timed-out fetch attempts, the peer is marked down
// for a cooldown, and the node falls back to its own local search — the
// worst case is seed-node work, not an error.
package cluster
