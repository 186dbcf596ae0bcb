package core

import (
	"liferaft/internal/bucket"
	"liferaft/internal/cache/disktier"
	"liferaft/internal/segment"
	"liferaft/internal/simclock"
)

// TierOptions configures the disk cache tier of a file-backed engine
// (NewFileBacked). The zero value builds no tier.
type TierOptions struct {
	// Dir is the disk tier's cache directory (created if missing;
	// reopening a warm directory restarts warm). Empty means no tier:
	// every read goes straight to the segment files.
	Dir string
	// CapacityBytes bounds the tier's cached data bytes.
	CapacityBytes int64
	// PrefetchInflight bounds concurrent background promotions
	// (disktier.Config.PromoteInflight); 0 means the tier default.
	PrefetchInflight int
}

// NewFileBacked builds the real-I/O stack over an opened segment set
// (segment.OpenSet or segment.Ensure; written beforehand by
// segment.Write / cmd/skygen -write-segments), taking ownership of it:
// the set is validated against part and closed on any error, and
// cfg.Store.Close() releases it (and the tier, persisting its eviction
// state) when the engine is done. The config is NewOn's on the real
// clock, so reads block for as long as the hardware takes and record
// their measured elapsed time, while the disk object keeps the SkyQuery
// model only for the costs that remain modeled (the in-memory match
// constant Tm and workload spill accounting).
//
// With tier.Dir set, the disk cache tier sits between the engine and the
// segment files: hits are served from mmap'd group regions, misses fall
// through and promote, and a positive cfg.PrefetchDepth has the
// scheduler prefetch the buckets its own orderings say come next.
func NewFileBacked(part *bucket.Partition, alpha float64, materialize bool, set *segment.Set, tier TierOptions) (Config, error) {
	if err := set.Validate(part); err != nil {
		set.Close()
		return Config{}, err
	}
	var backend bucket.Backend = segment.NewBackend(set, materialize)
	if tier.Dir != "" {
		t, err := disktier.Open(disktier.Config{
			Dir:             tier.Dir,
			CapacityBytes:   tier.CapacityBytes,
			PromoteInflight: tier.PrefetchInflight,
		})
		if err != nil {
			set.Close()
			return Config{}, err
		}
		backend = segment.NewTieredBackend(set, t, materialize)
	}
	cfg := NewOn(part, alpha, materialize, simclock.Real{})
	cfg.Store = cfg.Store.WithBackend(backend)
	return cfg, nil
}
