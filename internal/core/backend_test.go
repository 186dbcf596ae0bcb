package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"liferaft/internal/bucket"
	"liferaft/internal/segment"
)

// openParitySet opens the parity fixture's segment store.
func openParitySet(t *testing.T, dir string) *segment.Set {
	t.Helper()
	set, err := segment.OpenSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestConfigRejectsRealIOOnVirtualClock: a store with a real-I/O backend
// cannot run on a virtual clock — its reads take real time the clock
// would never see.
func TestConfigRejectsRealIOOnVirtualClock(t *testing.T) {
	part, dir, _, _ := parityFixture(t)
	cfg, _ := NewVirtual(part, 0.5, false)
	cfg.Store = cfg.Store.WithBackend(segment.NewBackend(openParitySet(t, dir), false))
	defer cfg.Store.Close()
	_, err := cfg.withDefaults()
	if err == nil || !strings.Contains(err.Error(), "real clock") {
		t.Fatalf("withDefaults = %v, want the real-clock rejection", err)
	}
}

// TestNewFileBackedValidatesPartition: a set built for another partition
// is refused with Validate's error before any tier is opened.
func TestNewFileBackedValidatesPartition(t *testing.T) {
	part, dir, _, _ := parityFixture(t)
	other, err := bucket.NewPartition(part.Catalog(), 2*part.PerBucket(), part.ObjectBytes())
	if err != nil {
		t.Fatal(err)
	}
	set := openParitySet(t, dir)
	want := set.Validate(other)
	if want == nil {
		t.Fatal("fixture: the other partition validates")
	}
	tierDir := filepath.Join(t.TempDir(), "tier")
	_, err = NewFileBacked(other, 0.5, false, set, TierOptions{Dir: tierDir, CapacityBytes: 1 << 20})
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("NewFileBacked = %v, want %v", err, want)
	}
	if _, err := os.Stat(tierDir); !os.IsNotExist(err) {
		t.Fatalf("tier directory created for a rejected set: %v", err)
	}
}
