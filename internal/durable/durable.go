// Package durable is the one crash-safe file primitive under the proving
// key artifact store (provesvc), the fixed-base table store (curve) and
// job-journal compaction (jobs): it owns every temp file, rename and
// directory fsync in the tree, so the write discipline and the failure
// policy (DESIGN.md §9.1) exist once. It knows nothing about its callers:
// file magics, extensions and fault-injection point names arrive as data.
package durable

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"zkperf/internal/faultinject"
)

// ErrCorrupt tags every ReadSealed validation failure: short file, wrong
// magic, checksum mismatch.
var ErrCorrupt = errors.New("durable: corrupt file")

// ErrDirSync tags a failed directory fsync. From WriteAtomic it means the
// new file IS in place under its final name but the rename may not
// survive a power cut; any other WriteAtomic error leaves the destination
// untouched.
var ErrDirSync = errors.New("durable: directory fsync failed")

// sealHeader is the envelope size: magic + SHA-256 of the payload.
const sealHeader = 8 + sha256.Size

// Points names the fault-injection sites of one store's writes: Write is
// the partial-write point wrapped around the temp file, Rename fires in
// the window between the durable temp file and its rename. An empty name
// is never armed.
type Points struct {
	Write, Rename string
}

// WriteAtomic replaces path with whatever write produces: temp file in
// path's directory → write → fsync → close → rename → fsync the directory.
// A crash at any point leaves the old file or the new one, never a mix —
// at worst a stray *.tmp for the next boot's sweep. Every returned error
// removes the temp file.
func WriteAtomic(ctx context.Context, path string, pts Points, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(faultinject.LimitWriter(ctx, pts.Write, f))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		// The kill-between-write window: temp file durable, rename not
		// yet performed.
		err = faultinject.Point(ctx, pts.Rename)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so a create or rename within it survives a
// power cut. Failures wrap ErrDirSync.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		if err = faultinject.Point(nil, faultinject.PointDirSync); err == nil {
			err = d.Sync()
		}
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrDirSync, err)
	}
	return nil
}

// WriteSealed writes payload under path inside the sealed envelope:
// magic, SHA-256(payload), payload.
func WriteSealed(ctx context.Context, path string, pts Points, magic [8]byte, payload []byte) error {
	sum := sha256.Sum256(payload)
	return WriteAtomic(ctx, path, pts, func(w io.Writer) error {
		for _, part := range [][]byte{magic[:], sum[:], payload} {
			if _, err := w.Write(part); err != nil {
				return err
			}
		}
		return nil
	})
}

// ReadSealed reads path and returns its payload after verifying the
// magic and checksum. Validation failures wrap ErrCorrupt; a file that
// cannot be read at all returns the os error unwrapped.
func ReadSealed(path string, magic [8]byte) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < sealHeader {
		return nil, fmt.Errorf("%w: %s: %d-byte file shorter than header", ErrCorrupt, path, len(raw))
	}
	if !bytes.Equal(raw[:len(magic)], magic[:]) {
		return nil, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, path)
	}
	payload := raw[sealHeader:]
	if sum := sha256.Sum256(payload); !bytes.Equal(raw[len(magic):sealHeader], sum[:]) {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrCorrupt, path)
	}
	return payload, nil
}

// Quarantine renames a corrupt file out of its store's namespace, over
// any earlier corpse of the same name. Rename can only really fail if the
// file vanished or the target is unusable; removing the source of
// corruption matters more than preserving it.
func Quarantine(path string) {
	if err := os.Rename(path, path+".corrupt"); err != nil {
		os.Remove(path)
	}
}

// SweepTemps removes every *.tmp in dir: writes that never reached their
// rename.
func SweepTemps(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, ent.Name()))
		}
	}
	return nil
}

// Sweep is the startup pass over a sealed store's directory: SweepTemps,
// then every file ending in ext that fails ReadSealed is quarantined. It
// returns how many were.
func Sweep(dir, ext string, magic [8]byte) (quarantined int, err error) {
	if err := SweepTemps(dir); err != nil {
		return 0, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ext) {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		if _, err := ReadSealed(path, magic); err != nil {
			Quarantine(path)
			quarantined++
		}
	}
	return quarantined, nil
}

// SafeName lower-cases s and maps every rune outside [a-z0-9-] to '_',
// so caller-supplied identifiers can be embedded in a file name.
func SafeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		default:
			return '_'
		}
	}, strings.ToLower(s))
}
