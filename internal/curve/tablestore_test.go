package curve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zkperf/internal/faultinject"
	"zkperf/internal/ff"
)

// withTableDir points the process-wide table store at a fresh directory
// for one test and restores the memory-only default afterwards.
func withTableDir(t *testing.T, dir string) {
	t.Helper()
	if err := SetTableDir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { SetTableDir("") })
}

// tableMulChecks verifies a table against plain double-and-add for a few
// random scalars.
func tableMulChecks(t *testing.T, c *Curve, tab *G1Table, seed uint64) {
	t.Helper()
	rng := ff.NewRNG(seed)
	var k ff.Element
	for i := 0; i < 4; i++ {
		c.Fr.Random(&k, rng)
		var got, want G1Jac
		tab.Mul(&got, &k)
		c.G1FromAffine(&want, &c.G1Gen)
		c.G1ScalarMul(&want, &want, &k)
		if !c.G1Equal(&got, &want) {
			t.Fatalf("%s: table mul != scalar mul", c.Name)
		}
	}
}

// TestGenTableRoundTrip: building persists the table; a "restart"
// (SetTableDir clears the memory cache) loads it from disk without
// rebuilding, and the loaded table computes identical results.
func TestGenTableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	withTableDir(t, dir)
	c := NewBN254()

	before := ReadTableStats()
	tab := c.G1GenTable()
	tableMulChecks(t, c, tab, 7)
	mid := ReadTableStats()
	if mid.Builds != before.Builds+1 || mid.DiskWrites != before.DiskWrites+1 {
		t.Fatalf("cold boot: builds %d→%d writes %d→%d, want +1/+1",
			before.Builds, mid.Builds, before.DiskWrites, mid.DiskWrites)
	}
	if _, err := os.Stat(tablePath(dir, c.Name, 1)); err != nil {
		t.Fatalf("persisted table missing: %v", err)
	}

	// Warm boot: fresh memory cache, same directory — zero rebuilds.
	if err := SetTableDir(dir); err != nil {
		t.Fatal(err)
	}
	tab2 := c.G1GenTable()
	tableMulChecks(t, c, tab2, 7)
	after := ReadTableStats()
	if after.Builds != mid.Builds {
		t.Fatalf("warm boot rebuilt the table: builds %d→%d, want 0 new", mid.Builds, after.Builds)
	}
	if after.DiskLoads != mid.DiskLoads+1 {
		t.Fatalf("warm boot disk loads %d→%d, want +1", mid.DiskLoads, after.DiskLoads)
	}

	// G2 follows the same path.
	g2b := ReadTableStats()
	c.G2GenTable()
	if err := SetTableDir(dir); err != nil {
		t.Fatal(err)
	}
	c.G2GenTable()
	g2a := ReadTableStats()
	if g2a.Builds != g2b.Builds+1 || g2a.DiskLoads != g2b.DiskLoads+1 {
		t.Fatalf("G2 round trip: builds +%d loads +%d, want +1/+1",
			g2a.Builds-g2b.Builds, g2a.DiskLoads-g2b.DiskLoads)
	}
}

// TestGenTableCorruptQuarantined: a bit-flipped table file must be
// quarantined to *.corrupt and rebuilt, never trusted.
func TestGenTableCorruptQuarantined(t *testing.T) {
	dir := t.TempDir()
	withTableDir(t, dir)
	c := NewBN254()
	c.G1GenTable()

	path := tablePath(dir, c.Name, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	before := ReadTableStats()
	// Restart over the corrupt file: the startup scan quarantines it and
	// the next lookup rebuilds and re-persists.
	if err := SetTableDir(dir); err != nil {
		t.Fatal(err)
	}
	tab := c.G1GenTable()
	tableMulChecks(t, c, tab, 11)
	after := ReadTableStats()
	if after.Quarantined != before.Quarantined+1 {
		t.Fatalf("quarantined %d→%d, want +1", before.Quarantined, after.Quarantined)
	}
	if after.Builds != before.Builds+1 {
		t.Fatalf("builds %d→%d, want +1 (rebuild after quarantine)", before.Builds, after.Builds)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt file not preserved: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("rebuilt table not re-persisted: %v", err)
	}
}

// TestGenTableTornWrite: a write truncated mid-payload (the process dying
// with the temp file half-written) must leave no *.zkt behind; the table
// still serves from memory and the next clean boot rebuilds.
func TestGenTableTornWrite(t *testing.T) {
	dir := t.TempDir()
	withTableDir(t, dir)
	disarm := faultinject.Arm(faultinject.PointTableWrite,
		faultinject.Fault{Kind: faultinject.KindPartialWrite, Bytes: 64})
	defer disarm()

	c := NewBN254()
	before := ReadTableStats()
	tab := c.G1GenTable()
	tableMulChecks(t, c, tab, 13)
	after := ReadTableStats()
	if after.WriteErrors != before.WriteErrors+1 {
		t.Fatalf("write errors %d→%d, want +1", before.WriteErrors, after.WriteErrors)
	}
	if after.DiskWrites != before.DiskWrites {
		t.Fatalf("torn write counted as a disk write")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".zkt") {
			t.Fatalf("torn write left a table file: %s", ent.Name())
		}
	}
}

// TestGenTableRenameCrash: an error between the durable temp write and
// the rename produces no final file and removes its own temp file; a
// process that really dies there leaves a *.tmp (planted here), which the
// next boot sweeps before rebuilding.
func TestGenTableRenameCrash(t *testing.T) {
	dir := t.TempDir()
	withTableDir(t, dir)
	disarm := faultinject.Arm(faultinject.PointTableRename,
		faultinject.Fault{Kind: faultinject.KindError, Count: 1})
	defer disarm()

	c := NewBN254()
	c.G1GenTable()
	if _, err := os.Stat(tablePath(dir, c.Name, 1)); !os.IsNotExist(err) {
		t.Fatalf("rename-crash still produced a final file (err=%v)", err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("failed write left its temp file behind: %v", tmps)
	}
	stray := tablePath(dir, c.Name, 1) + ".1234567.tmp"
	if err := os.WriteFile(stray, []byte("ZKTBLv1\ntorn"), 0o600); err != nil {
		t.Fatal(err)
	}

	// Reboot: stray *.tmp swept, table rebuilt and persisted cleanly.
	if err := SetTableDir(dir); err != nil {
		t.Fatal(err)
	}
	c.G1GenTable()
	if _, err := os.Stat(tablePath(dir, c.Name, 1)); err != nil {
		t.Fatalf("table not persisted after reboot: %v", err)
	}
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmps) != 0 {
		t.Fatalf("stale temp files survived the reboot sweep: %v", tmps)
	}
}

// TestGenTableCacheSharing: two instances of the same curve share one
// table build; a different curve gets its own.
func TestGenTableCacheSharing(t *testing.T) {
	withTableDir(t, t.TempDir())
	before := ReadTableStats()
	NewBN254().G1GenTable()
	NewBN254().G1GenTable()
	mid := ReadTableStats()
	if mid.Builds != before.Builds+1 {
		t.Fatalf("same-curve instances built %d tables, want 1", mid.Builds-before.Builds)
	}
	tab := NewBLS12381().G1GenTable()
	after := ReadTableStats()
	if after.Builds != mid.Builds+1 {
		t.Fatalf("distinct curve did not build its own table")
	}
	tableMulChecks(t, NewBLS12381(), tab, 17)
}
