package durable

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"zkperf/internal/faultinject"
)

var (
	testMagic  = [8]byte{'D', 'U', 'R', 'T', 'S', 'T', '1', '\n'}
	testPoints = Points{Write: "durable.test.write", Rename: "durable.test.rename"}
)

// ls returns the names in dir, sorted.
func ls(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, ent := range entries {
		names[i] = ent.Name()
	}
	return names
}

// TestWriteFaults: whatever interrupts a write — the temp file torn at N
// bytes, an error in the rename window, the caller's own encoder failing
// — the previous file survives byte for byte and no temp file is left.
// A failed directory fsync is different: the new file is in place, and
// the error says so.
func TestWriteFaults(t *testing.T) {
	errEncode := errors.New("encoder failed")
	old, fresh := []byte("old payload"), bytes.Repeat([]byte("new payload "), 64)
	cases := []struct {
		name    string
		point   string
		fault   faultinject.Fault
		write   func(io.Writer) error // nil: write fresh sealed
		wantErr error
		landed  bool // the new file replaced the old one
	}{
		{name: "clean", landed: true},
		{name: "partial write at 0 bytes", point: testPoints.Write,
			fault: faultinject.Fault{Kind: faultinject.KindPartialWrite, Bytes: 0}, wantErr: faultinject.ErrInjected},
		{name: "partial write inside the header", point: testPoints.Write,
			fault: faultinject.Fault{Kind: faultinject.KindPartialWrite, Bytes: 16}, wantErr: faultinject.ErrInjected},
		{name: "partial write inside the payload", point: testPoints.Write,
			fault: faultinject.Fault{Kind: faultinject.KindPartialWrite, Bytes: sealHeader + 100}, wantErr: faultinject.ErrInjected},
		{name: "rename window", point: testPoints.Rename,
			fault: faultinject.Fault{Kind: faultinject.KindError}, wantErr: faultinject.ErrInjected},
		{name: "encoder error", write: func(w io.Writer) error {
			w.Write([]byte("half a rec"))
			return errEncode
		}, wantErr: errEncode},
		{name: "directory fsync", point: faultinject.PointDirSync,
			fault: faultinject.Fault{Kind: faultinject.KindError}, wantErr: ErrDirSync, landed: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "store.bin")
			ctx := context.Background()
			if err := WriteSealed(ctx, path, testPoints, testMagic, old); err != nil {
				t.Fatalf("seeding write: %v", err)
			}
			if tc.point != "" {
				t.Cleanup(faultinject.Arm(tc.point, tc.fault))
			}
			var err error
			if tc.write != nil {
				err = WriteAtomic(ctx, path, testPoints, tc.write)
			} else {
				err = WriteSealed(ctx, path, testPoints, testMagic, fresh)
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("write error = %v, want %v", err, tc.wantErr)
			}
			if tc.point == faultinject.PointDirSync && !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("ErrDirSync lost its cause: %v", err)
			}
			want := old
			if tc.landed {
				want = fresh
			}
			got, err := ReadSealed(path, testMagic)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("after the write the file holds %d bytes (err %v), want the %d-byte payload",
					len(got), err, len(want))
			}
			if names := ls(t, dir); !slices.Equal(names, []string{"store.bin"}) {
				t.Fatalf("directory after the write = %v, want only store.bin (no temp file)", names)
			}
		})
	}
}

// TestSealedLayout pins the on-disk envelope — magic, SHA-256(payload),
// payload, nothing else — against bytes assembled by hand: files written
// before this package existed must keep loading, and files it writes must
// load there.
func TestSealedLayout(t *testing.T) {
	payload := []byte("the payload")
	sum := sha256.Sum256(payload)
	want := append(append(append([]byte(nil), testMagic[:]...), sum[:]...), payload...)

	path := filepath.Join(t.TempDir(), "layout.bin")
	if err := WriteSealed(context.Background(), path, testPoints, testMagic, payload); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("WriteSealed wrote %x (err %v), want %x", got, err, want)
	}
	if err := os.WriteFile(path, want, 0o600); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadSealed(path, testMagic); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ReadSealed of a hand-assembled file = (%q, %v), want the payload", got, err)
	}
}

// TestSyncDirMissing: a directory that cannot be opened is an error, not
// a silent skip.
func TestSyncDirMissing(t *testing.T) {
	err := SyncDir(filepath.Join(t.TempDir(), "gone"))
	if !errors.Is(err, ErrDirSync) || !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("SyncDir(missing) = %v, want ErrDirSync wrapping ErrNotExist", err)
	}
}

// TestReadSealedRejects: every way a sealed file can be damaged wraps
// ErrCorrupt; a missing file does not.
func TestReadSealedRejects(t *testing.T) {
	payload := bytes.Repeat([]byte{0xa5}, 300)
	otherMagic := [8]byte{'O', 'T', 'H', 'E', 'R', 'v', '1', '\n'}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bit flip in the payload", func(raw []byte) []byte { raw[len(raw)-1] ^= 0x01; return raw }},
		{"bit flip in the checksum", func(raw []byte) []byte { raw[12] ^= 0x80; return raw }},
		{"truncated inside the payload", func(raw []byte) []byte { return raw[:len(raw)/2] }},
		{"truncated below the header", func(raw []byte) []byte { return raw[:sealHeader-1] }},
		{"empty", func([]byte) []byte { return nil }},
		{"wrong magic", func(raw []byte) []byte { copy(raw, otherMagic[:]); return raw }},
		{"trailing garbage", func(raw []byte) []byte { return append(raw, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "x.bin")
			if err := WriteSealed(context.Background(), path, testPoints, testMagic, payload); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mutate(raw), 0o600); err != nil {
				t.Fatal(err)
			}
			if got, err := ReadSealed(path, testMagic); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ReadSealed = (%d bytes, %v), want ErrCorrupt", len(got), err)
			}
		})
	}
	_, err := ReadSealed(filepath.Join(t.TempDir(), "absent.bin"), testMagic)
	if !errors.Is(err, os.ErrNotExist) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadSealed(absent) = %v, want a bare ErrNotExist", err)
	}
	// An empty payload is a valid file, not a short one.
	path := filepath.Join(t.TempDir(), "empty.bin")
	if err := WriteSealed(context.Background(), path, testPoints, testMagic, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadSealed(path, testMagic); err != nil || len(got) != 0 {
		t.Fatalf("ReadSealed(empty payload) = (%d bytes, %v), want (0, nil)", len(got), err)
	}
}

// TestQuarantine: the corpse is kept under *.corrupt, replacing an
// earlier one; when the rename cannot succeed the corrupt file is removed
// rather than left in the namespace.
func TestQuarantine(t *testing.T) {
	cases := []struct {
		name       string
		plant      func(t *testing.T, corpse string)
		wantCorpse string // "" → *.corrupt is not a regular file afterwards
	}{
		{"fresh", func(*testing.T, string) {}, "bad"},
		{"target already exists", func(t *testing.T, corpse string) {
			if err := os.WriteFile(corpse, []byte("earlier corpse"), 0o600); err != nil {
				t.Fatal(err)
			}
		}, "bad"},
		{"target is a non-empty directory", func(t *testing.T, corpse string) {
			if err := os.MkdirAll(filepath.Join(corpse, "sub"), 0o755); err != nil {
				t.Fatal(err)
			}
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "k.bin")
			if err := os.WriteFile(path, []byte("bad"), 0o600); err != nil {
				t.Fatal(err)
			}
			tc.plant(t, path+".corrupt")
			Quarantine(path)
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt file still in the namespace (stat err %v)", err)
			}
			got, err := os.ReadFile(path + ".corrupt")
			if tc.wantCorpse == "" {
				if err == nil {
					t.Fatalf("corpse = %q, want the unusable target left alone", got)
				}
			} else if err != nil || string(got) != tc.wantCorpse {
				t.Fatalf("corpse = (%q, %v), want %q", got, err, tc.wantCorpse)
			}
		})
	}
	Quarantine(filepath.Join(t.TempDir(), "never-existed")) // must not panic
}

// TestSweep: a boot removes planted stray temp files (whoever's they
// were), quarantines the sealed files that fail validation, and leaves
// good files, other extensions and earlier corpses alone.
func TestSweep(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	write := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteSealed(ctx, filepath.Join(dir, "good.bin"), testPoints, testMagic, []byte("keep me")); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, "good.bin"))
	if err != nil {
		t.Fatal(err)
	}
	write("good.bin.123456.tmp", good[:20]) // a write that died before its rename
	write("jobs.wal.tmp", []byte("x"))      // the fixed temp name older compactions used
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-2] ^= 0x10
	write("flipped.bin", flipped)
	write("short.bin", good[:10])
	write("notes.txt", []byte("not ours"))
	write("old.bin.corrupt", []byte("earlier corpse"))

	n, err := Sweep(dir, ".bin", testMagic)
	if err != nil || n != 2 {
		t.Fatalf("Sweep = (%d, %v), want 2 quarantined", n, err)
	}
	want := []string{"flipped.bin.corrupt", "good.bin", "notes.txt", "old.bin.corrupt", "short.bin.corrupt"}
	if names := ls(t, dir); !slices.Equal(names, want) {
		t.Fatalf("directory after sweep = %v, want %v", names, want)
	}
	if n, err := Sweep(dir, ".bin", testMagic); err != nil || n != 0 {
		t.Fatalf("second Sweep = (%d, %v), want a clean directory to stay clean", n, err)
	}
	if _, err := Sweep(filepath.Join(dir, "gone"), ".bin", testMagic); err == nil {
		t.Fatal("Sweep of a missing directory returned no error")
	}
}

func TestSafeName(t *testing.T) {
	for in, want := range map[string]string{
		"bn128":        "bn128",
		"BLS12-381":    "bls12-381",
		"../../etc/pw": "______etc_pw",
		"a b.c":        "a_b_c",
		"":             "",
	} {
		if got := SafeName(in); got != want {
			t.Errorf("SafeName(%q) = %q, want %q", in, got, want)
		}
	}
}
