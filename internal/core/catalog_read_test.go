package core

import (
	"math"
	"testing"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/geom"
	"liferaft/internal/segment"
	"liferaft/internal/workload"
)

// sameBits reports whether two objects are bit-identical.
func sameBits(a, b catalog.Object) bool {
	fs := func(o catalog.Object) [4]uint64 {
		return [4]uint64{math.Float64bits(o.Pos.X), math.Float64bits(o.Pos.Y), math.Float64bits(o.Pos.Z), math.Float64bits(o.Mag)}
	}
	return a.ID == b.ID && a.HTMID == b.HTMID && fs(a) == fs(b)
}

// TestReplayLeavesMemoizedCatalogIntact: a materializing engine reads
// buckets straight out of a memoized catalog's slab (one shard and two,
// the latter from concurrent shard workers). After the replay the slab
// must equal a fresh synthesis bit for bit: no reader wrote to it.
func TestReplayLeavesMemoizedCatalogIntact(t *testing.T) {
	ccfg := catalog.Config{Name: "alias-sdss", N: 20000, Seed: 21, GenLevel: 4, CacheTrixels: true}
	local, err := catalog.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := catalog.NewDerived(local, catalog.DerivedConfig{
		Name: "alias-2mass", Seed: 22, Fraction: 0.8, JitterRad: geom.ArcsecToRad(1.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	part, err := bucket.NewPartition(local, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	tc := workload.DefaultTraceConfig(23)
	tc.NumQueries = 40
	tc.MinSelectivity, tc.MaxSelectivity = 0.2, 1.0
	tr, err := workload.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	for _, q := range tr.Queries {
		jobs = append(jobs, Job{ID: q.ID, Objects: workload.Materialize(q, remote, tc.Seed), Pred: q.Predicate()})
	}
	for _, shards := range []int{1, 2} {
		cfg, _ := NewVirtual(part, 0.5, true)
		cfg.Shards = shards
		res, _ := mustRun(t, cfg, jobs, satOffsets(len(jobs)))
		pairs := 0
		for _, r := range res {
			pairs += len(r.Pairs)
		}
		if pairs == 0 {
			t.Fatalf("shards=%d: the replay matched nothing", shards)
		}
	}
	ccfg.CacheTrixels = false
	fresh, err := catalog.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(ccfg.N)
	got, want := local.Objects(0, n), fresh.Objects(0, n)
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("object %d changed: %+v, synthesized %+v", i, got[i], want[i])
		}
	}
}

// TestWarmStoreReadAllocs: a warm simulated Store read returns the
// memoized catalog's slab without allocating; a file-backed
// materializing probe allocates only the decoded slice, reading into
// the segment set's reused buffer.
func TestWarmStoreReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	part, dir, _, _ := parityFixture(t)
	cfg, _ := NewVirtual(part, 0.5, true)
	st := cfg.Store
	st.ReadBucket(7)
	if a := testing.AllocsPerRun(100, func() { st.ReadBucket(7) }); a != 0 {
		t.Errorf("warm simulated ReadBucket allocates %.2f/op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { st.Probe(7, 3) }); a != 0 {
		t.Errorf("warm simulated Probe allocates %.2f/op, want 0", a)
	}

	fb := segment.NewBackend(openParitySet(t, dir), true)
	defer fb.Close()
	if _, _, err := fb.Probe(7, 3); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { fb.Probe(7, 3) }); a > 1 {
		t.Errorf("FileBackend.Probe allocates %.2f/op, want at most 1 (the decoded slice)", a)
	}
	cost := segment.NewBackend(openParitySet(t, dir), false)
	defer cost.Close()
	cost.ReadBucket(7)
	if a := testing.AllocsPerRun(100, func() { cost.ReadBucket(7); cost.Probe(7, 1) }); a != 0 {
		t.Errorf("cost-only FileBackend scan and probe allocate %.2f/op, want 0", a)
	}
}
