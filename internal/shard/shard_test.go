package shard

import (
	"math"
	"sync"
	"testing"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/geom"
	"liferaft/internal/xmatch"
)

func testPartition(t *testing.T, perBucket int) *bucket.Partition {
	t.Helper()
	cat, err := catalog.New(catalog.Config{
		Name: "sdss", N: 6400, Seed: 9, GenLevel: 4, CacheTrixels: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	part, err := bucket.NewPartition(cat, perBucket, 0)
	if err != nil {
		t.Fatal(err)
	}
	return part
}

func TestNewMapValidation(t *testing.T) {
	part := testPartition(t, 200) // 32 buckets
	if _, err := NewMap(nil, 2, nil); err == nil {
		t.Error("nil partition should fail")
	}
	if _, err := NewMap(part, 0, nil); err == nil {
		t.Error("zero shards should fail")
	}
	if _, err := NewMap(part, -1, nil); err == nil {
		t.Error("negative shards should fail")
	}
}

func TestByRangeBalance(t *testing.T) {
	part := testPartition(t, 200) // 32 buckets
	for _, k := range []int{1, 2, 3, 4, 7, 8, 31, 32} {
		m, err := NewMap(part, k, ByRange{})
		if err != nil {
			t.Fatal(err)
		}
		if m.Shards() != k || m.NumBuckets() != part.NumBuckets() {
			t.Fatalf("k=%d: wrong dimensions", k)
		}
		total, min, max := 0, part.NumBuckets(), 0
		for s := 0; s < k; s++ {
			n := m.Buckets(s)
			total += n
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if total != part.NumBuckets() {
			t.Fatalf("k=%d: %d buckets assigned, want %d", k, total, part.NumBuckets())
		}
		if max-min > 1 {
			t.Errorf("k=%d: range split imbalanced: min %d max %d", k, min, max)
		}
		// Contiguity: owners must be non-decreasing.
		for b := 1; b < part.NumBuckets(); b++ {
			if m.Owner(b) < m.Owner(b-1) {
				t.Fatalf("k=%d: range owners not contiguous at bucket %d", k, b)
			}
		}
	}
}

func TestByHTMHashCoversAllBuckets(t *testing.T) {
	part := testPartition(t, 200)
	m, err := NewMap(part, 4, ByHTMHash{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for s := 0; s < 4; s++ {
		total += m.Buckets(s)
	}
	if total != part.NumBuckets() {
		t.Fatalf("%d buckets assigned, want %d", total, part.NumBuckets())
	}
	if m.PartitionerName() != "htmhash" {
		t.Errorf("name %q", m.PartitionerName())
	}
}

func TestMoreShardsThanBuckets(t *testing.T) {
	part := testPartition(t, 3200) // 2 buckets
	m, err := NewMap(part, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	owned := 0
	for s := 0; s < 8; s++ {
		if m.Buckets(s) > 0 {
			owned++
		}
	}
	if owned != 2 {
		t.Fatalf("%d shards own buckets, want 2 (the rest are empty shards)", owned)
	}
}

func TestFanout(t *testing.T) {
	part := testPartition(t, 200)
	m, err := NewMap(part, 4, ByRange{})
	if err != nil {
		t.Fatal(err)
	}
	cat := part.Catalog()
	objs := cat.Objects(0, 64)
	var wos []xmatch.WorkloadObject
	for _, o := range objs {
		wos = append(wos, xmatch.NewWorkloadObject(1, o, geom.ArcsecToRad(5)))
	}
	fan := m.Fanout(wos)
	if len(fan) != 4 {
		t.Fatalf("fan-out has %d entries, want 4", len(fan))
	}
	// Every object must land on exactly the shards owning its buckets,
	// once per shard.
	for _, wo := range wos {
		want := map[int]bool{}
		for _, bi := range part.BucketsForRanges(wo.Ranges()) {
			want[m.Owner(bi)] = true
		}
		for s := 0; s < 4; s++ {
			got := 0
			for _, fo := range fan[s] {
				if fo.Obj.ID == wo.Obj.ID {
					got++
				}
			}
			wantN := 0
			if want[s] {
				wantN = 1
			}
			if got != wantN {
				t.Fatalf("object %d appears %d times on shard %d, want %d", wo.Obj.ID, got, s, wantN)
			}
		}
	}
	// Each shard keeps the input order.
	pos := make(map[uint64]int, len(wos))
	for i, wo := range wos {
		pos[wo.Obj.ID] = i
	}
	for s := 0; s < 4; s++ {
		for i := 1; i < len(fan[s]); i++ {
			if pos[fan[s][i-1].Obj.ID] >= pos[fan[s][i].Obj.ID] {
				t.Fatalf("shard %d: objects out of input order at %d", s, i)
			}
		}
	}
	// A one-shard map hands the input through without copying it.
	one, err := NewMap(part, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := one.Fanout(wos)[0]; len(got) != len(wos) || &got[0] != &wos[0] {
		t.Error("one-shard fan-out copied the input")
	}
	// Low-ordinal objects are spatially local: they must all fan out to
	// shard 0 under a range split (an all-on-one-shard query).
	first := m.Fanout(wos[:1])
	if len(first[0]) != 1 {
		t.Error("first object should land on shard 0 under a range split")
	}
	// Empty input fans out to nothing.
	for s, part := range m.Fanout(nil) {
		if len(part) != 0 {
			t.Errorf("empty fan-out has work on shard %d", s)
		}
	}
}

func TestCoordinator(t *testing.T) {
	c := NewCoordinator()
	if err := c.Register(1, 0); err == nil {
		t.Error("fan-out 0 should fail")
	}
	if err := c.Register(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(1, 1); err == nil {
		t.Error("duplicate registration should fail")
	}
	t0 := time.Unix(100, 0)
	t1 := time.Unix(200, 0)
	if done, _ := c.Complete(1, t1); done {
		t.Fatal("done after 1 of 2 shards")
	}
	if c.Pending() != 1 {
		t.Fatalf("pending %d, want 1", c.Pending())
	}
	done, latest := c.Complete(1, t0)
	if !done {
		t.Fatal("not done after both shards")
	}
	if !latest.Equal(t1) {
		t.Fatalf("latest %v, want the later completion %v", latest, t1)
	}
	if c.Pending() != 0 {
		t.Fatalf("pending %d, want 0", c.Pending())
	}
	defer func() {
		if recover() == nil {
			t.Error("completing an unregistered query should panic")
		}
	}()
	c.Complete(99, t0)
}

func TestCoordinatorConcurrent(t *testing.T) {
	c := NewCoordinator()
	const queries, shards = 64, 8
	for q := uint64(0); q < queries; q++ {
		if err := c.Register(q, shards); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	doneCount := 0
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for q := uint64(0); q < queries; q++ {
				if done, _ := c.Complete(q, time.Unix(int64(s), 0)); done {
					mu.Lock()
					doneCount++
					mu.Unlock()
				}
			}
		}(s)
	}
	wg.Wait()
	if doneCount != queries {
		t.Fatalf("%d queries reported done, want %d", doneCount, queries)
	}
	if c.Pending() != 0 {
		t.Fatalf("pending %d, want 0", c.Pending())
	}
}

// TestByHTMHashBalance: hashing must spread buckets across shards without
// gross imbalance, across several shard counts and partition sizes. The
// assignment is deterministic (splitmix64 of each bucket's span start), so
// the tolerance only needs to absorb binomial spread, not flakiness: every
// shard must own at least one bucket and no shard may exceed twice its
// fair share plus the binomial standard deviation.
func TestByHTMHashBalance(t *testing.T) {
	for _, perBucket := range []int{50, 100, 200} {
		part := testPartition(t, perBucket) // 128, 64, 32 buckets
		n := part.NumBuckets()
		for _, k := range []int{2, 4, 8} {
			m, err := NewMap(part, k, ByHTMHash{})
			if err != nil {
				t.Fatal(err)
			}
			mean := float64(n) / float64(k)
			sd := math.Sqrt(mean * (1 - 1/float64(k)))
			min, max, total := n, 0, 0
			for s := 0; s < k; s++ {
				c := m.Buckets(s)
				total += c
				if c < min {
					min = c
				}
				if c > max {
					max = c
				}
			}
			if total != n {
				t.Fatalf("buckets=%d shards=%d: counts sum to %d", n, k, total)
			}
			if min == 0 {
				t.Errorf("buckets=%d shards=%d: a shard owns no buckets", n, k)
			}
			if float64(max) > 2*mean+sd {
				t.Errorf("buckets=%d shards=%d: max %d exceeds 2*mean+sd (%.1f)", n, k, max, 2*mean+sd)
			}
			if float64(max-min) > mean+2*sd {
				t.Errorf("buckets=%d shards=%d: spread max-min = %d-%d exceeds mean+2sd (%.1f)",
					n, k, max, min, mean+2*sd)
			}
		}
	}
}
