package sfcache

// Test-only windows onto the shard hash, for the external test that feeds
// it keys built by the real measurement-key codec (internal/measure
// imports this package, so that test cannot live inside it).
const ShardCount = shardCount

func ShardOf(key []byte) int { return int(hashKey(key) >> (64 - shardBits)) }
