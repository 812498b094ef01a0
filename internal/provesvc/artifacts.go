package provesvc

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"zkperf/internal/backend"
	"zkperf/internal/curve"
	"zkperf/internal/durable"
	"zkperf/internal/faultinject"
	"zkperf/internal/r1cs"
)

// The disk artifact store. The comparative literature (ZKProphet, SZKP)
// treats setup/key material as the dominant amortizable cost of a
// prover; our in-memory registry amortizes it across requests, and this
// store amortizes it across process restarts. A corrupt proving key is
// the worst artifact to load — it silently produces garbage proofs — so
// files live in internal/durable's sealed envelope (crash-safe writes,
// SHA-256 payload checksum, quarantine to *.corrupt, startup sweep) and
// any validation, key-match or decode failure is a cache miss that
// re-runs setup: never a panic, never an error surfaced to a job.
//
// Payload format inside the envelope (everything little-endian):
//
//	backend  u16 len + bytes      curve  u16 len + bytes
//	srcHash  [32]byte             (the registry's circuit-source hash)
//	pk       u64 len + bytes      (backend.ProvingKey.Encode)
//	vk       u64 len + bytes      (backend.VerifyingKey.Encode)
//
// Only keys are persisted: the constraint system and solver program are
// recompiled from source (cheap, and the source is the cache key anyway).
// PLONK's proving key serializes as SRS+domain and is re-preprocessed on
// load by its ReadProvingKey, exactly like the CLI pipeline.

var artifactMagic = [8]byte{'Z', 'K', 'A', 'R', 'T', 'v', '1', '\n'}

var artifactPoints = durable.Points{
	Write:  faultinject.PointArtifactWrite,
	Rename: faultinject.PointArtifactRename,
}

// errArtifactCorrupt tags payload decode failures that quarantine a file.
var errArtifactCorrupt = errors.New("provesvc: corrupt artifact file")

// artifactStore persists (ProvingKey, VerifyingKey) pairs per CircuitKey
// under one directory. Concurrency: the registry's singleflight already
// serializes all work per key, so the store itself needs no locking
// beyond its counters.
type artifactStore struct {
	dir string

	diskLoads   atomic.Uint64 // artifacts served from disk (setup skipped)
	diskWrites  atomic.Uint64 // artifacts persisted
	quarantined atomic.Uint64 // files renamed to *.corrupt
	writeErrors atomic.Uint64 // failed persists (job unaffected)
}

// newArtifactStore opens (creating if needed) dir and sweeps it, so
// startup never trusts a torn file.
func newArtifactStore(dir string) (*artifactStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("provesvc: artifact dir: %w", err)
	}
	n, err := durable.Sweep(dir, ".zka", artifactMagic)
	if err != nil {
		return nil, fmt.Errorf("provesvc: artifact dir: %w", err)
	}
	st := &artifactStore{dir: dir}
	st.quarantined.Add(uint64(n))
	return st, nil
}

// path names the artifact file for key: the leading 12 bytes of the
// source hash plus the curve and backend, all filename-safe.
func (st *artifactStore) path(key CircuitKey) string {
	return filepath.Join(st.dir, fmt.Sprintf("%s.%s.%s.zka",
		hex.EncodeToString(key.SourceHash[:12]), durable.SafeName(key.Curve), durable.SafeName(key.Backend)))
}

// load returns the persisted keys for key, decoded against bk and sys.
// ok is false on any miss — absent file, corrupt file (quarantined), or
// decode failure — and the caller falls back to a fresh setup.
func (st *artifactStore) load(ctx context.Context, key CircuitKey, bk backend.Backend, sys *r1cs.System) (pk backend.ProvingKey, vk backend.VerifyingKey, ok bool) {
	path := st.path(key)
	payload, err := durable.ReadSealed(path, artifactMagic)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, false
	}
	if err == nil {
		err = faultinject.Point(ctx, faultinject.PointArtifactLoad)
	}
	if err == nil {
		pk, vk, err = decodeArtifactPayload(payload, key, bk, sys)
	}
	if err != nil {
		durable.Quarantine(path)
		st.quarantined.Add(1)
		return nil, nil, false
	}
	st.diskLoads.Add(1)
	return pk, vk, true
}

func decodeArtifactPayload(payload []byte, key CircuitKey, bk backend.Backend, sys *r1cs.System) (backend.ProvingKey, backend.VerifyingKey, error) {
	r := bytes.NewReader(payload)
	readStr := func() (string, error) {
		var n uint16
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return "", err
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	backendName, err := readStr()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errArtifactCorrupt, err)
	}
	curveName, err := readStr()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errArtifactCorrupt, err)
	}
	var srcHash [sha256.Size]byte
	if _, err := io.ReadFull(r, srcHash[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errArtifactCorrupt, err)
	}
	if backendName != key.Backend || curveName != key.Curve || srcHash != key.SourceHash {
		return nil, nil, fmt.Errorf("%w: artifact key mismatch (have %s/%s, want %s/%s)",
			errArtifactCorrupt, backendName, curveName, key.Backend, key.Curve)
	}
	readBlob := func() ([]byte, error) {
		var n uint64
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return nil, err
		}
		if n > uint64(r.Len()) {
			return nil, fmt.Errorf("blob length %d exceeds remaining %d bytes", n, r.Len())
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	pkBytes, err := readBlob()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errArtifactCorrupt, err)
	}
	vkBytes, err := readBlob()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", errArtifactCorrupt, err)
	}
	pk, err := bk.ReadProvingKey(bytes.NewReader(pkBytes), sys)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: proving key: %v", errArtifactCorrupt, err)
	}
	vk, err := bk.ReadVerifyingKey(bytes.NewReader(vkBytes))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: verifying key: %v", errArtifactCorrupt, err)
	}
	return pk, vk, nil
}

// save persists the keys for key crash-safely. Persistence failures are
// counted and the job that produced the keys is never affected.
func (st *artifactStore) save(ctx context.Context, key CircuitKey, pk backend.ProvingKey, vk backend.VerifyingKey) error {
	payload, err := encodeArtifactPayload(key, pk, vk)
	if err == nil {
		err = durable.WriteSealed(ctx, st.path(key), artifactPoints, artifactMagic, payload)
	}
	if err != nil {
		st.writeErrors.Add(1)
		return err
	}
	st.diskWrites.Add(1)
	return nil
}

func encodeArtifactPayload(key CircuitKey, pk backend.ProvingKey, vk backend.VerifyingKey) ([]byte, error) {
	var payload bytes.Buffer
	writeStr := func(s string) {
		binary.Write(&payload, binary.LittleEndian, uint16(len(s)))
		payload.WriteString(s)
	}
	writeStr(key.Backend)
	writeStr(key.Curve)
	payload.Write(key.SourceHash[:])
	writeBlob := func(enc func(io.Writer) error) error {
		var b bytes.Buffer
		if err := enc(&b); err != nil {
			return err
		}
		binary.Write(&payload, binary.LittleEndian, uint64(b.Len()))
		payload.Write(b.Bytes())
		return nil
	}
	if err := writeBlob(pk.Encode); err != nil {
		return nil, fmt.Errorf("provesvc: encoding proving key: %w", err)
	}
	if err := writeBlob(vk.Encode); err != nil {
		return nil, fmt.Errorf("provesvc: encoding verifying key: %w", err)
	}
	return payload.Bytes(), nil
}

// ArtifactStats is the `artifacts` block of /v1/stats.
type ArtifactStats struct {
	// Enabled is true when WithArtifactDir configured a store.
	Enabled bool `json:"enabled"`
	// Dir is the persistence directory ("" when disabled).
	Dir string `json:"dir,omitempty"`
	// DiskLoads counts artifacts served from disk — each one a trusted
	// setup that did not have to re-run after a restart.
	DiskLoads uint64 `json:"disk_loads"`
	// DiskWrites counts artifacts persisted.
	DiskWrites uint64 `json:"disk_writes"`
	// Quarantined counts corrupt files renamed to *.corrupt.
	Quarantined uint64 `json:"quarantined"`
	// WriteErrors counts failed persists (the proving job is unaffected).
	WriteErrors uint64 `json:"write_errors"`
	// Tables reports fixed-base generator-table provenance: TableBuilds
	// counts tables computed from scratch this process, TableLoads tables
	// served from disk — a warm restart shows table_builds == 0.
	TableBuilds      uint64 `json:"table_builds"`
	TableLoads       uint64 `json:"table_loads"`
	TableWrites      uint64 `json:"table_writes"`
	TableQuarantined uint64 `json:"table_quarantined"`
}

func (st *artifactStore) stats() ArtifactStats {
	ts := curve.ReadTableStats()
	out := ArtifactStats{
		TableBuilds:      ts.Builds,
		TableLoads:       ts.DiskLoads,
		TableWrites:      ts.DiskWrites,
		TableQuarantined: ts.Quarantined,
	}
	if st == nil {
		return out
	}
	out.Enabled = true
	out.Dir = st.dir
	out.DiskLoads = st.diskLoads.Load()
	out.DiskWrites = st.diskWrites.Load()
	out.Quarantined = st.quarantined.Load()
	out.WriteErrors = st.writeErrors.Load()
	return out
}
