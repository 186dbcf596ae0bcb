package segment

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
)

// fixture builds a small catalog and partition: 3000 objects in 25
// buckets of 120, with a 64-byte record stride (the smallest multiple
// of 8 above RecordBytes, keeping the test directory tiny).
func fixture(t *testing.T) *bucket.Partition {
	t.Helper()
	cat, err := catalog.New(catalog.Config{
		Name: "seg-test", N: 3000, Seed: 7, GenLevel: 3, CacheTrixels: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	part, err := bucket.NewPartition(cat, 120, 64)
	if err != nil {
		t.Fatal(err)
	}
	return part
}

func writeFixture(t *testing.T, part *bucket.Partition, group int) (string, WriteStats) {
	t.Helper()
	dir := t.TempDir()
	st, err := Write(dir, part, WriteOptions{BucketsPerSegment: group})
	if err != nil {
		t.Fatal(err)
	}
	return dir, st
}

func TestSegmentRoundTrip(t *testing.T) {
	part := fixture(t)
	dir, st := writeFixture(t, part, 8) // 25 buckets -> 4 segments
	if st.Segments != 4 || st.Buckets != part.NumBuckets() || st.Objects != 3000 {
		t.Fatalf("write stats = %+v", st)
	}
	set, err := OpenSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if err := set.Validate(part); err != nil {
		t.Fatal(err)
	}
	var bytes int64
	for i := 0; i < part.NumBuckets(); i++ {
		objs, n, err := set.ReadBucket(i)
		if err != nil {
			t.Fatalf("bucket %d: %v", i, err)
		}
		bytes += n
		want := part.Materialize(i)
		if !reflect.DeepEqual(objs, want) {
			t.Fatalf("bucket %d objects diverge from catalog materialization", i)
		}
		if n != part.BucketBytes(i) {
			t.Errorf("bucket %d read %d bytes, model charges %d", i, n, part.BucketBytes(i))
		}
	}
	if bytes != 3000*64 {
		t.Errorf("total data bytes = %d, want %d", bytes, 3000*64)
	}
}

func TestSegmentProbePages(t *testing.T) {
	part := fixture(t)
	dir, _ := writeFixture(t, part, 8)
	set, err := OpenSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	// Bucket 0 holds 120*64 = 7680 data bytes: one probe reads one
	// 4 KiB page, a flood of probes is capped at the region size.
	if n, err := set.ReadPages(0, 1); err != nil || n != BlockSize {
		t.Errorf("ReadPages(0,1) = %d, %v; want %d", n, err, BlockSize)
	}
	if n, err := set.ReadPages(0, 100); err != nil || n != 7680 {
		t.Errorf("ReadPages(0,100) = %d, %v; want 7680", n, err)
	}
}

func TestSegmentChecksumDetectsCorruption(t *testing.T) {
	part := fixture(t)
	dir, _ := writeFixture(t, part, 32) // single segment
	path := filepath.Join(dir, segmentName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the data region (bucket ~12).
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0xFF
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	set, err := OpenSet(dir)
	if err != nil {
		t.Fatal(err) // header/index untouched; open must still succeed
	}
	defer set.Close()
	corrupted := 0
	for i := 0; i < set.NumBuckets(); i++ {
		if _, _, err := set.ReadBucket(i); err != nil {
			if !strings.Contains(err.Error(), "checksum") {
				t.Fatalf("bucket %d failed with non-checksum error: %v", i, err)
			}
			corrupted++
		}
	}
	if corrupted != 1 {
		t.Errorf("%d buckets failed checksum, want exactly 1", corrupted)
	}

	// Corrupting the header must fail at open, before any read.
	mut2 := append([]byte(nil), data...)
	mut2[16] ^= 0xFF
	if err := os.WriteFile(path, mut2, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSet(dir); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("open over corrupt header = %v, want checksum error", err)
	}
}

func TestSegmentOpenRejectsMissingManifest(t *testing.T) {
	if _, err := OpenSet(t.TempDir()); err == nil || !strings.Contains(err.Error(), ManifestName) {
		t.Errorf("open of empty dir = %v, want missing-manifest error", err)
	}
}

func TestSegmentValidateRejectsForeignGeometry(t *testing.T) {
	part := fixture(t)
	dir, _ := writeFixture(t, part, 8)
	set, err := OpenSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	other, err := bucket.NewPartition(part.Catalog(), 150, 64) // different bucketing
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(other); err == nil {
		t.Error("Validate accepted a partition with a different bucket size")
	}
}

func TestSegmentEnsureIdempotentAndSafe(t *testing.T) {
	part := fixture(t)
	dir := t.TempDir()
	set1, st, err := Ensure(dir, part, WriteOptions{BucketsPerSegment: 8})
	if err != nil {
		t.Fatal(err)
	}
	set1.Close()
	if st.Segments == 0 {
		t.Fatal("first Ensure did not build the store")
	}
	// Second Ensure opens without rebuilding.
	set2, st2, err := Ensure(dir, part, WriteOptions{BucketsPerSegment: 8})
	if err != nil {
		t.Fatal(err)
	}
	set2.Close()
	if st2.Segments != 0 {
		t.Errorf("second Ensure rewrote %d segments", st2.Segments)
	}
	// Ensure over a store built for other geometry refuses, never
	// clobbers.
	other, err := bucket.NewPartition(part.Catalog(), 150, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Ensure(dir, other, WriteOptions{}); err == nil {
		t.Error("Ensure accepted a directory built for different geometry")
	}
}

func TestSegmentWriteRejectsNarrowStride(t *testing.T) {
	cat, err := catalog.New(catalog.Config{Name: "narrow", N: 100, Seed: 1, GenLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	part, err := bucket.NewPartition(cat, 10, 16) // 16 < RecordBytes
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Write(t.TempDir(), part, WriteOptions{}); err == nil {
		t.Error("Write accepted a stride narrower than a record")
	}
}

func TestBackendForkIsIndependent(t *testing.T) {
	part := fixture(t)
	dir, _ := writeFixture(t, part, 8)
	set, err := OpenSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	be := NewBackend(set, true)
	fork, err := be.Fork()
	if err != nil {
		t.Fatal(err)
	}
	// Closing the original must not break the fork's descriptors.
	be.Close()
	objs, _, err := fork.ReadBucket(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(objs, part.Materialize(3)) {
		t.Error("forked backend returned diverging objects")
	}
	fork.Close()
}

func TestBackendCostOnlyStillReads(t *testing.T) {
	part := fixture(t)
	dir, _ := writeFixture(t, part, 8)
	set, err := OpenSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	be := NewBackend(set, false)
	objs, n, err := be.ReadBucket(0)
	if err != nil {
		t.Fatal(err)
	}
	if objs != nil {
		t.Error("cost-only read returned objects")
	}
	if n != part.BucketBytes(0) {
		t.Errorf("cost-only read moved %d bytes, want %d", n, part.BucketBytes(0))
	}
}

// Regression: a manifest that parses as JSON but carries nonsense
// geometry must fail open like any other corruption — the negative
// bucket count used to panic allocating the lookup table.
func TestSegmentOpenRejectsCorruptManifestGeometry(t *testing.T) {
	part := fixture(t)
	dir, _ := writeFixture(t, part, 8)
	path := filepath.Join(dir, ManifestName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct{ field, repl string }{
		{"num_buckets", `"num_buckets": -1`},
		{"num_buckets", `"num_buckets": 2147483647000`},
		{"per_bucket", `"per_bucket": 0`},
		{"object_bytes", `"object_bytes": 8`},
		{"total_objects", `"total_objects": -5`},
	} {
		mut := regexp.MustCompile(`"`+bad.field+`": [0-9-]+`).ReplaceAll(good, []byte(bad.repl))
		if string(mut) == string(good) {
			t.Fatalf("mutation %q did not apply", bad.repl)
		}
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSet(dir); err == nil || !strings.Contains(err.Error(), "corrupt manifest") {
			t.Errorf("open with %s = %v, want corrupt-manifest error", bad.repl, err)
		}
	}
}

// Validate must reject a store whose geometry matches but whose content
// provenance (seed, materialization level) differs — serving
// plausible-but-wrong objects is worse than failing.
func TestSegmentValidateRejectsForeignProvenance(t *testing.T) {
	part := fixture(t)
	dir, _ := writeFixture(t, part, 8)
	set, err := OpenSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	otherSeed, err := catalog.New(catalog.Config{
		Name: "seg-test", N: 3000, Seed: 8, GenLevel: 3, CacheTrixels: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	partOther, err := bucket.NewPartition(otherSeed, 120, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(partOther); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("Validate over a different seed = %v, want seed-mismatch error", err)
	}
}

// TestSetConcurrentReads: scans, decoding reads and probe reads of one
// Set from several goroutines at once share its read buffer safely (run
// under -race): every decoded bucket equals the catalog's, and one
// goroutine's read never shows up in another's objects.
func TestSetConcurrentReads(t *testing.T) {
	part := fixture(t)
	dir, _ := writeFixture(t, part, 8)
	set, err := OpenSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for i := g % 3; i < part.NumBuckets(); i++ {
					objs, _, err := set.ReadBucket(i)
					if err != nil || !reflect.DeepEqual(objs, part.Materialize(i)) {
						t.Errorf("goroutine %d: bucket %d diverges (err %v)", g, i, err)
						return
					}
					if n, err := set.ScanBucket(part.NumBuckets() - 1 - i); err != nil || n != part.BucketBytes(part.NumBuckets()-1-i) {
						t.Errorf("goroutine %d: scan of bucket %d = %d, %v", g, part.NumBuckets()-1-i, n, err)
						return
					}
					if _, err := set.ReadPages(i, 1); err != nil {
						t.Errorf("goroutine %d: probe of bucket %d: %v", g, i, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
