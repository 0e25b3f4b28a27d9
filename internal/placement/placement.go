// Package placement is the process-independent stream-placement contract
// shared by every layer that partitions streams by ID: the hub (shard
// routing), the /v1 serving layer (placement echo in StreamInfo), and the
// multi-node router front tier (backend routing).
//
// The contract: Index(id, n) is FNV-1a (32-bit) over the raw bytes of the
// stream ID, reduced mod n. It is a pure function of its inputs — no
// process state, no randomization, no architecture dependence — so two
// processes that agree on n agree on every stream's placement without
// coordinating. hub.Hub documents the same function as its shard hash
// (TestShardIndexStable pins sample values); lifting it here makes the
// cross-process guarantee explicit: a router hashing onto N backends and
// each backend hashing onto its local shards compose into a stable
// two-level placement.
//
// Changing this function is a flag-day break for any fleet with persisted
// or externally-computed placements; do not.
package placement

// Index returns the placement of id among n slots: FNV-1a over the ID
// bytes, mod n. n must be >= 1; Index panics otherwise (a zero-slot table
// is a construction bug, not a routing decision).
func Index(id string, n int) int {
	if n < 1 {
		panic("placement: Index needs n >= 1")
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return int(h % uint32(n))
}
