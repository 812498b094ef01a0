// The durable job journal: an append-only write-ahead log of job
// lifecycle transitions, so a node killed mid-job does not orphan every
// 202-accepted job ID it ever handed out. The WAL records `accepted`
// (with the full serialized request), `started`, `done` (with the
// result), `failed` and `cancelled`; Manager.New replays it so finished
// jobs come back pollable until TTL and queued/running-at-crash jobs are
// re-enqueued for execution.
//
// On-disk format: a flat sequence of records, each
//
//	u32 payload length (little endian)
//	u32 CRC32-C of the payload
//	payload: one JSON walRecord
//
// Appends fsync before the submit path acknowledges, compaction rewrites
// the file through durable.WriteAtomic, and nothing read from disk is
// trusted — a torn tail or checksum-corrupt record truncates the WAL
// back to the last intact boundary (the discarded bytes are quarantined
// in jobs.wal.corrupt for post-mortems) and is never fatal. The length
// prefix is attacker-controlled bytes as far as the decoder is
// concerned: it is bounded by both the record cap and the file size
// before it ever sizes an allocation.
package jobs

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"zkperf/internal/durable"
	"zkperf/internal/faultinject"
)

const (
	walName        = "jobs.wal"
	walCorruptName = "jobs.wal.corrupt"
	// maxWALRecord caps one record's payload. Requests are bounded by the
	// HTTP body limit and results by proof size, both far below this; a
	// length prefix past it is corruption, not data.
	maxWALRecord = 8 << 20
	// compactSlack is how many dead records the WAL may accumulate beyond
	// ~2 per live job before a sweep triggers compaction.
	compactSlack = 64
)

// Lifecycle ops recorded in the WAL.
const (
	opAccepted  = "accepted"
	opStarted   = "started"
	opDone      = "done"
	opFailed    = "failed"
	opCancelled = "cancelled"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// walRecord is the JSON payload of one WAL record. Every op carries ID;
// the other fields are op-specific (accepted: kind/key/req, done: res,
// failed/cancelled: the err_* envelope). Unknown ops are skipped on
// replay so old binaries tolerate newer journals.
type walRecord struct {
	Op   string `json:"op"`
	ID   string `json:"id"`
	Kind string `json:"kind,omitempty"`
	At   int64  `json:"at,omitempty"`  // transition time, unix nanos
	Key  string `json:"key,omitempty"` // idempotency key

	Req json.RawMessage `json:"req,omitempty"` // accepted: serialized request
	Res json.RawMessage `json:"res,omitempty"` // done: serialized result

	ErrCode      string `json:"err_code,omitempty"`
	ErrMsg       string `json:"err_msg,omitempty"`
	ErrStatus    int    `json:"err_status,omitempty"`
	ErrRetryable bool   `json:"err_retryable,omitempty"`
}

// ReplayedError is the failure restored for a journaled job that was
// already failed or cancelled when the process died: the classification
// the original error carried (stable code, HTTP status, retryability)
// survives the restart even though the error value itself cannot.
type ReplayedError struct {
	Code      string
	Message   string
	Status    int
	Retryable bool
}

func (e *ReplayedError) Error() string { return e.Message }

// replayedJob is one job's state merged from its WAL records.
type replayedJob struct {
	ID, Kind, Key              string
	Created, Started, Finished time.Time
	State                      State
	Payload                    []byte
	Result                     json.RawMessage
	Err                        *ReplayedError
}

// Journal is the durable WAL handle. Open one with OpenJournal and hand
// it to a single Manager via Config.Journal — the manager replays it at
// New, appends every transition, compacts it on sweep and closes it at
// Shutdown.
//
// Lock order: Journal.mu may be taken before Manager.mu (compaction
// snapshots live jobs under both), so manager code must never append —
// or take Journal.mu any other way — while holding Manager.mu.
type Journal struct {
	dir  string
	path string

	mu      sync.Mutex
	f       *os.File // nil once closed (or after an unrecoverable error)
	off     int64    // end of the last intact record
	records int      // records currently in the file

	compactions atomic.Uint64
	torn        atomic.Uint64
	appendErrs  atomic.Uint64
	compactErrs atomic.Uint64
}

// OpenJournal creates dir if needed, sweeps any temp file a crash
// mid-compaction left in it, and returns a journal over dir/jobs.wal. The
// file itself is opened (and replayed) when a Manager is constructed with
// it.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := durable.SweepTemps(dir); err != nil {
		return nil, err
	}
	return &Journal{dir: dir, path: filepath.Join(dir, walName)}, nil
}

// Path returns the WAL file path.
func (jl *Journal) Path() string { return jl.path }

// Close fsyncs and closes the WAL; subsequent appends are dropped.
func (jl *Journal) Close() error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f == nil {
		return nil
	}
	jl.f.Sync()
	err := jl.f.Close()
	jl.f = nil
	return err
}

// scanWAL reads length-prefixed records from r (size bytes in total),
// calling apply for each intact one. It returns the offset just past the
// last intact record, the intact record count, and whether the stream
// ended cleanly — false means a torn tail or a corrupt record, and
// nothing past goodEnd was applied. The length prefix is validated
// against both the record cap and the bytes the stream can still hold
// before it sizes an allocation (the PR-4 decoder-hardening rule).
func scanWAL(r io.Reader, size int64, apply func(walRecord)) (goodEnd int64, n int, clean bool) {
	br := bufio.NewReader(r)
	var off int64
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return off, n, err == io.EOF
		}
		ln := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if ln == 0 || int64(ln) > maxWALRecord || off+8+int64(ln) > size {
			return off, n, false
		}
		buf := make([]byte, ln)
		if _, err := io.ReadFull(br, buf); err != nil {
			return off, n, false
		}
		if crc32.Checksum(buf, castagnoli) != sum {
			return off, n, false
		}
		var rec walRecord
		if err := json.Unmarshal(buf, &rec); err != nil || rec.ID == "" {
			return off, n, false
		}
		apply(rec)
		off += 8 + int64(ln)
		n++
	}
}

// applyRecord merges one record into the per-job replay state. Merging
// is order-insensitive for the accepted/terminal race (a fast job's
// `done` may land before its submitter's `accepted` append) and
// idempotent, so compacted journals — which re-emit accepted + terminal
// pairs — replay identically.
func applyRecord(byID map[string]*replayedJob, order *[]*replayedJob, rec walRecord) {
	rj := byID[rec.ID]
	if rj == nil {
		rj = &replayedJob{ID: rec.ID, State: StateQueued}
		byID[rec.ID] = rj
		*order = append(*order, rj)
	}
	at := time.Unix(0, rec.At)
	switch rec.Op {
	case opAccepted:
		if rec.Kind != "" {
			rj.Kind = rec.Kind
		}
		if rec.Key != "" {
			rj.Key = rec.Key
		}
		if len(rec.Req) > 0 {
			rj.Payload = append([]byte(nil), rec.Req...)
		}
		if rec.At != 0 {
			rj.Created = at
		}
	case opStarted:
		if rj.State == StateQueued {
			rj.State = StateRunning
		}
		rj.Started = at
	case opDone:
		rj.State, rj.Finished, rj.Err = StateDone, at, nil
		rj.Result = append(json.RawMessage(nil), rec.Res...)
	case opFailed, opCancelled:
		rj.State, rj.Finished, rj.Result = StateFailed, at, nil
		re := &ReplayedError{
			Code:      rec.ErrCode,
			Message:   rec.ErrMsg,
			Status:    rec.ErrStatus,
			Retryable: rec.ErrRetryable,
		}
		if re.Code == "" {
			re.Code = "internal_error"
		}
		if re.Message == "" {
			re.Message = "jobs: job failed before restart"
		}
		rj.Err = re
	}
}

// replay opens the WAL, merges its records into per-job state and
// positions the file for appends. A torn tail or corrupt record is
// recovered by quarantining the unreadable suffix to jobs.wal.corrupt
// and truncating back to the last intact boundary — records before the
// damage survive, and the error is counted, never fatal. Only opening
// the file itself can fail.
func (jl *Journal) replay() ([]*replayedJob, error) {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	// 0600: the WAL holds request payloads, and that is the mode of the
	// file compaction (durable.WriteAtomic) replaces this one with.
	f, err := os.OpenFile(jl.path, os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	// On a first boot the open above created jobs.wal: the "fsync before
	// 202" promise needs its directory entry durable too, not only its
	// bytes.
	if err := durable.SyncDir(jl.dir); err != nil {
		jl.appendErrs.Add(1)
	}

	byID := map[string]*replayedJob{}
	var order []*replayedJob
	var goodEnd int64
	var nrec int
	clean := true
	if err := faultinject.Point(nil, faultinject.PointJournalReplay); err != nil {
		// An injected replay fault models an unreadable WAL: quarantine
		// everything and start empty — durability degrades, the node boots.
		clean, byID, order = false, map[string]*replayedJob{}, nil
	} else {
		goodEnd, nrec, clean = scanWAL(f, size, func(rec walRecord) {
			applyRecord(byID, &order, rec)
		})
	}
	if !clean {
		jl.torn.Add(1)
		jl.quarantineTail(f, goodEnd, size)
		f.Truncate(goodEnd)
		f.Sync()
	}
	if _, err := f.Seek(goodEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	jl.f, jl.off, jl.records = f, goodEnd, nrec
	return order, nil
}

// quarantineTail copies the unparseable suffix [from, size) of the WAL
// to jobs.wal.corrupt so truncation never silently destroys evidence.
// Best effort: a failure here only loses the post-mortem copy.
func (jl *Journal) quarantineTail(f *os.File, from, size int64) {
	if size <= from {
		return
	}
	q, err := os.Create(filepath.Join(jl.dir, walCorruptName))
	if err != nil {
		return
	}
	defer q.Close()
	io.Copy(q, io.NewSectionReader(f, from, size-from))
	q.Sync()
}

// encodeRecord frames one record: length + CRC32-C header, JSON payload.
func encodeRecord(rec walRecord) ([]byte, bool) {
	data, err := json.Marshal(rec)
	if err != nil || len(data) > maxWALRecord {
		return nil, false
	}
	out := make([]byte, 8+len(data))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(data)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(data, castagnoli))
	copy(out[8:], data)
	return out, true
}

// append durably adds one record: write, fsync, advance. A failed or
// short write (including an armed jobs.journal.append partial-write
// fault) rolls the file back to the last intact boundary so the WAL
// stays parseable; the job itself proceeds in memory either way —
// journal trouble degrades durability, never availability.
func (jl *Journal) append(rec walRecord) {
	frame, ok := encodeRecord(rec)
	if !ok {
		jl.appendErrs.Add(1)
		return
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f == nil {
		return
	}
	if err := faultinject.Point(nil, faultinject.PointJournalAppend); err != nil {
		jl.appendErrs.Add(1)
		return
	}
	w := faultinject.LimitWriter(nil, faultinject.PointJournalAppend, jl.f)
	if _, err := w.Write(frame); err != nil {
		jl.appendErrs.Add(1)
		// A half-written record would corrupt every record after it.
		if jl.f.Truncate(jl.off) != nil {
			jl.f.Close()
			jl.f = nil
			return
		}
		jl.f.Seek(jl.off, io.SeekStart)
		return
	}
	jl.f.Sync()
	jl.off += int64(len(frame))
	jl.records++
}

// needsCompact reports whether the WAL holds enough dead weight — more
// than ~2 records per live job plus slack — to be worth rewriting.
func (jl *Journal) needsCompact(live int) bool {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.f != nil && jl.records > 2*live+compactSlack
}

// compact rewrites the WAL to exactly the records build returns: a crash
// at any point leaves either the old WAL or the new one, never a mix.
// build runs under the journal lock so no append can land between the
// snapshot and the rewrite (which is why it must not be called with
// Manager.mu held — see the lock-order note on Journal).
func (jl *Journal) compact(build func() []walRecord) {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f == nil {
		return
	}
	if err := faultinject.Point(nil, faultinject.PointJournalCompact); err != nil {
		jl.compactErrs.Add(1)
		return
	}
	recs := build()
	var size int64
	n := 0
	err := durable.WriteAtomic(context.Background(), jl.path,
		durable.Points{Write: faultinject.PointJournalCompact},
		func(w io.Writer) error {
			bw := bufio.NewWriter(w)
			for _, rec := range recs {
				frame, ok := encodeRecord(rec)
				if !ok {
					continue
				}
				if _, err := bw.Write(frame); err != nil {
					return err
				}
				size += int64(len(frame))
				n++
			}
			return bw.Flush()
		})
	if err != nil {
		jl.compactErrs.Add(1)
		if !errors.Is(err, durable.ErrDirSync) {
			return // the old WAL is untouched
		}
		// The new WAL is in place, only its directory fsync failed: keep
		// going, or appends would land in the unlinked old file.
	}
	// The old handle points at the unlinked inode; reopen the new file
	// for appends.
	nf, err := os.OpenFile(jl.path, os.O_RDWR, 0)
	if err == nil {
		if _, err = nf.Seek(size, io.SeekStart); err != nil {
			nf.Close()
		}
	}
	jl.f.Close()
	if err != nil {
		jl.f = nil
		jl.compactErrs.Add(1)
		return
	}
	jl.f, jl.off, jl.records = nf, size, n
	jl.compactions.Add(1)
}

// JournalStats is the `journal` block of the jobs stats: durability
// health at a glance (zero-valued with Enabled false when no journal is
// configured).
type JournalStats struct {
	Enabled bool   `json:"enabled"`
	Path    string `json:"path,omitempty"`
	// Records and SizeBytes describe the live WAL file.
	Records   int   `json:"records"`
	SizeBytes int64 `json:"size_bytes"`
	// Replayed counts jobs restored from the journal at startup;
	// Reexecuted is the subset re-enqueued because they were queued or
	// running when the previous process died.
	Replayed   uint64 `json:"replayed"`
	Reexecuted uint64 `json:"reexecuted"`
	// DedupHits counts submissions answered with an existing job via
	// Idempotency-Key.
	DedupHits   uint64 `json:"dedup_hits"`
	Compactions uint64 `json:"compactions"`
	// TornRecords counts replay recoveries: torn tails and corrupt
	// records truncated/quarantined.
	TornRecords   uint64 `json:"torn_records"`
	AppendErrors  uint64 `json:"append_errors"`
	CompactErrors uint64 `json:"compact_errors"`
}
