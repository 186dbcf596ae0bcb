package segment

import (
	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
)

// FileBackend adapts a Set to the bucket.Backend interface: the store's
// sequential scans become full-region preads with checksum
// verification, and index probes become page reads from the bucket's
// block run. In cost-only mode (the configuration scheduling
// experiments use) reads still move every byte — that is the point —
// but skip decoding.
type FileBackend struct {
	set         *Set
	materialize bool
}

// NewBackend wraps an opened Set. materialize must match the Store the
// backend serves: a materializing store needs decoded objects, a
// cost-only store needs only the I/O.
func NewBackend(set *Set, materialize bool) *FileBackend {
	return &FileBackend{set: set, materialize: materialize}
}

// Set returns the underlying segment set.
func (b *FileBackend) Set() *Set { return b.set }

// ReadBucket implements bucket.Backend: a checksum-verified pread of
// the bucket's full data region.
func (b *FileBackend) ReadBucket(i int) ([]catalog.Object, int64, error) {
	if !b.materialize {
		n, err := b.set.ScanBucket(i)
		return nil, n, err
	}
	return b.set.ReadBucket(i)
}

// Probe implements bucket.Backend. A materializing probe must hand the
// join evaluator the bucket's objects (it probes them in memory, as the
// simulated store's contract prescribes), so it reads the full region;
// a cost-only probe reads just the n head pages an index pass would
// touch. Either way the caller accounts n probes, not a scan.
func (b *FileBackend) Probe(i, n int) ([]catalog.Object, int64, error) {
	if !b.materialize {
		read, err := b.set.ReadPages(i, n)
		return nil, read, err
	}
	objs, read, err := b.set.ReadBucket(i)
	return objs, read, err
}

// Fork implements bucket.Backend: an independent Set over the same
// directory, with its own file descriptors.
func (b *FileBackend) Fork() (bucket.Backend, error) {
	set, err := b.set.Reopen()
	if err != nil {
		return nil, err
	}
	return &FileBackend{set: set, materialize: b.materialize}, nil
}

// Close implements bucket.Backend.
func (b *FileBackend) Close() error { return b.set.Close() }
