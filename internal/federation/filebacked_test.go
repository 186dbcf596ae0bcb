package federation

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"liferaft/internal/bucket"
	"liferaft/internal/segment"
	"liferaft/internal/simclock"
)

// fileFixtureBytes is the on-disk object stride of the file-backed test
// nodes: small enough that the sdss store stays ~2.6 MB.
const fileFixtureBytes = 64

// writeSDSSStore writes the fixture's sdss archive (partitioned as the
// fixture's nodes partition it) as a segment store under a temp dir.
func writeSDSSStore(t *testing.T) string {
	t.Helper()
	newFixture(t) // builds fedCats
	part, err := bucket.NewPartition(fedCats[0], 400, fileFixtureBytes)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := segment.Write(dir, part, segment.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestNodeFileBackedValidation: NewNode rejects every inconsistent
// combination of the storage knobs before it opens anything.
func TestNodeFileBackedValidation(t *testing.T) {
	dir := writeSDSSStore(t)
	cases := []struct {
		name string
		cfg  NodeConfig
		want string
	}{
		{"cache-without-data", NodeConfig{CacheDir: t.TempDir(), DiskTierBytes: 1 << 20},
			"require a file-backed node"},
		{"data-on-virtual-clock", NodeConfig{DataDir: dir, Clock: simclock.NewVirtual()},
			"needs the real clock"},
		{"cache-without-bound", NodeConfig{DataDir: dir, CacheDir: t.TempDir()},
			"positive DiskTierBytes"},
		{"prefetch-without-cache", NodeConfig{DataDir: dir, PrefetchDepth: 4},
			"PrefetchDepth requires CacheDir"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Catalog, cfg.ObjectsPerBucket, cfg.ObjectBytes = fedCats[0], 400, fileFixtureBytes
			n, err := NewNode(cfg)
			if err == nil {
				n.Close()
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestTieredNodeMatchesUntiered: a file-backed sdss node with the disk
// cache tier and scheduler prefetch answers the standard two-archive
// query with exactly the rows an untiered node over the same segment
// store returns, on a cold tier and again on the now-warm one.
func TestTieredNodeMatchesUntiered(t *testing.T) {
	dir := writeSDSSStore(t)
	twomass, err := NewNode(NodeConfig{
		Catalog: fedCats[1], ObjectsPerBucket: 400, Alpha: 0.25, Clock: simclock.NewVirtual(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer twomass.Close()

	rows := func(tier NodeConfig, runs int) [][][2]uint64 {
		t.Helper()
		cfg := tier
		cfg.Catalog, cfg.ObjectsPerBucket, cfg.ObjectBytes = fedCats[0], 400, fileFixtureBytes
		cfg.Alpha, cfg.DataDir = 0.25, dir
		sdss, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sdss.Close()
		portal := NewPortal()
		portal.Register("sdss", InProc{sdss})
		portal.Register("twomass", InProc{twomass})
		var out [][][2]uint64
		for i := 0; i < runs; i++ {
			rs, err := portal.Execute(testQuery())
			if err != nil {
				t.Fatal(err)
			}
			keys := make([][2]uint64, 0, len(rs.Rows))
			for _, row := range rs.Rows {
				keys = append(keys, [2]uint64{row.Objects["twomass"].ID, row.Objects["sdss"].ID})
			}
			sort.Slice(keys, func(a, b int) bool {
				if keys[a][0] != keys[b][0] {
					return keys[a][0] < keys[b][0]
				}
				return keys[a][1] < keys[b][1]
			})
			out = append(out, keys)
		}
		return out
	}

	plain := rows(NodeConfig{}, 1)[0]
	if len(plain) == 0 {
		t.Fatal("untiered file-backed node found nothing")
	}
	tiered := rows(NodeConfig{CacheDir: t.TempDir(), DiskTierBytes: 8 << 20, PrefetchDepth: 4}, 2)
	for i, got := range tiered {
		if !reflect.DeepEqual(got, plain) {
			t.Fatalf("tiered run %d: %d rows, untiered %d (or different rows)", i, len(got), len(plain))
		}
	}
}
