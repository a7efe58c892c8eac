// Package cluster replicates the block-schedule cache across a fleet of
// serve.Server nodes, so each distinct block DP search runs once
// fleet-wide instead of once per process.
//
// A block search is deterministic: two searches of the same structure
// (the same blockcache.Fingerprint) give the same schedule. So nodes need
// not agree on who owns a key, only avoid repeating work, and every node
// holds every block — the whole model zoo at three batch sizes is a few
// hundred entries. A joining node loads one live peer's whole block cache
// (GET /cluster/snapshot, the cache-file format, validated as a file is)
// before New returns, then serves every block the fleet has searched
// without a search or a per-key request. A background pusher ships each
// entry a node searched or loaded from a file to every peer; an entry
// merged from a peer is never pushed on, and each peer has its own cursor.
//
// The cost of replication is a race: a structure two nodes are asked for
// within one push interval is searched by both. Both get the same bits.
//
// Stage measurements do not travel. A peer round trip costs an order of
// magnitude more than the simulator run it would save, so the measurement
// cache is a node-local memo: a node re-simulates the few stage latencies
// it reports, and gets the same bits because the simulator is
// deterministic.
//
// Peer failure never surfaces to clients, and a search never waits on a
// peer: a node that fails a pull or a push is skipped for a cooldown, and
// gets its backlog of pushes once it answers again.
package cluster
