package jobs

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"zkperf/internal/faultinject"
)

// newJournal opens a journal over a fresh temp dir.
func newJournal(t *testing.T, dir string) *Journal {
	t.Helper()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	return jl
}

// TestJournalRestartRetainsFinished: a finished job's result survives a
// clean restart — the new manager serves it from the journal, same ID,
// same payload, until TTL.
func TestJournalRestartRetainsFinished(t *testing.T) {
	dir := t.TempDir()
	m1 := New(Config{Journal: newJournal(t, dir)})
	m1.Start()
	j, _, err := m1.SubmitWith(SubmitOptions{Kind: "prove", Payload: []byte(`{"x":1}`)},
		func(ctx context.Context, started func()) (any, error) {
			started()
			return map[string]int{"answer": 42}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m1.Shutdown(ctx)

	m2 := newTestManager(t, Config{Journal: newJournal(t, dir)})
	got, err := m2.Get(j.ID())
	if err != nil {
		t.Fatalf("replayed job not found: %v", err)
	}
	if got.State() != StateDone || got.Kind() != "prove" {
		t.Fatalf("replayed job = %s/%s, want done/prove", got.State(), got.Kind())
	}
	res, _ := got.Result()
	data, _ := json.Marshal(res)
	if string(data) != `{"answer":42}` {
		t.Fatalf("replayed result = %s, want {\"answer\":42}", data)
	}
	if st := m2.Snapshot(); st.Journal.Replayed != 1 || st.Journal.Reexecuted != 0 {
		t.Fatalf("journal stats = %+v, want replayed=1 reexecuted=0", st.Journal)
	}
}

// TestJournalRestartReplaysFailedEnvelope: a failed job replays with its
// classified envelope intact (code/status/retryability cross the
// restart as a ReplayedError).
func TestJournalRestartReplaysFailedEnvelope(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("kaboom")
	m1 := New(Config{
		Journal: newJournal(t, dir),
		ErrorClass: func(err error) (int, string, bool) {
			if errors.Is(err, boom) {
				return 502, "kaboom_code", true
			}
			return 500, "internal_error", false
		},
	})
	m1.Start()
	j, err := m1.Submit("prove", func(ctx context.Context, started func()) (any, error) {
		started()
		return nil, boom
	})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m1.Shutdown(ctx)

	m2 := newTestManager(t, Config{Journal: newJournal(t, dir)})
	got, err := m2.Get(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	_, jerr := got.Result()
	var rep *ReplayedError
	if !errors.As(jerr, &rep) {
		t.Fatalf("replayed err = %v (%T), want *ReplayedError", jerr, jerr)
	}
	if rep.Code != "kaboom_code" || rep.Status != 502 || !rep.Retryable || rep.Message != "kaboom" {
		t.Fatalf("replayed envelope = %+v, want kaboom_code/502/retryable/kaboom", rep)
	}
}

// TestJournalCrashReplaysPending: jobs queued when the process dies
// (manager constructed, never started — the WAL holds accepted records
// with no terminal) come back as pending replays, and Resume re-executes
// them under their original IDs.
func TestJournalCrashReplaysPending(t *testing.T) {
	dir := t.TempDir()
	jl1 := newJournal(t, dir)
	m1 := New(Config{Journal: jl1})
	// Deliberately no Start(): submits stay queued, as if the process was
	// killed before any dispatcher ran them.
	j, _, err := m1.SubmitWith(SubmitOptions{Kind: "prove", Payload: []byte(`{"req":"original"}`)},
		func(ctx context.Context, started func()) (any, error) {
			t.Error("pre-crash RunFunc must not run after replay")
			return nil, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	jl1.Close() // simulate the crash ending all writes

	m2 := newTestManager(t, Config{Journal: newJournal(t, dir)})
	pend := m2.PendingReplays()
	if len(pend) != 1 || pend[0].ID != j.ID() || pend[0].Kind != "prove" {
		t.Fatalf("pending = %+v, want the crashed job", pend)
	}
	if string(pend[0].Payload) != `{"req":"original"}` {
		t.Fatalf("payload = %s, want the journaled request", pend[0].Payload)
	}
	// Until resumed the job polls as queued under its old ID.
	got, err := m2.Get(j.ID())
	if err != nil || got.State() != StateQueued {
		t.Fatalf("pre-resume Get = (%v, %v), want queued", got, err)
	}
	if err := m2.Resume(j.ID(), func(ctx context.Context, started func()) (any, error) {
		started()
		return "re-executed", nil
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "replayed job completion", func() bool {
		return got.State() == StateDone
	})
	if res, _ := got.Result(); res != "re-executed" {
		t.Fatalf("result = %v, want re-executed", res)
	}
	if st := m2.Snapshot(); st.Journal.Replayed != 1 || st.Journal.Reexecuted != 1 {
		t.Fatalf("journal stats = %+v, want replayed=1 reexecuted=1", st.Journal)
	}
	if err := m2.Resume("nosuchjob", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Resume(unknown) = %v, want ErrNotFound", err)
	}
}

// TestJournalTornTailRecovers: a half-written final record (the kill -9
// window) is truncated and quarantined; intact earlier records survive.
func TestJournalTornTailRecovers(t *testing.T) {
	dir := t.TempDir()
	m1 := New(Config{Journal: newJournal(t, dir)})
	m1.Start()
	j, err := m1.Submit("prove", func(ctx context.Context, started func()) (any, error) {
		started()
		return "ok", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m1.Shutdown(ctx)

	// Tear the tail: a header promising 512 payload bytes, then only 4.
	path := filepath.Join(dir, walName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 512)
	f.Write(hdr[:])
	f.Write([]byte("torn"))
	f.Close()
	pre, _ := os.Stat(path)

	jl2 := newJournal(t, dir)
	m2 := newTestManager(t, Config{Journal: jl2})
	if got, err := m2.Get(j.ID()); err != nil || got.State() != StateDone {
		t.Fatalf("intact records must survive the torn tail: (%v, %v)", got, err)
	}
	st := m2.Snapshot()
	if st.Journal.TornRecords != 1 {
		t.Fatalf("torn_records = %d, want 1", st.Journal.TornRecords)
	}
	post, err := os.Stat(path)
	if err != nil || post.Size() >= pre.Size() {
		t.Fatalf("WAL not truncated: %d -> %d (%v)", pre.Size(), post.Size(), err)
	}
	if q, err := os.Stat(filepath.Join(dir, walCorruptName)); err != nil || q.Size() != 12 {
		t.Fatalf("quarantine file = (%v, %v), want the 12 torn bytes", q, err)
	}
}

// TestJournalCorruptRecordStopsScan: a checksum-corrupt record drops it
// and everything after (truncated + quarantined), never panics, and
// records before it replay fine.
func TestJournalCorruptRecordStopsScan(t *testing.T) {
	dir := t.TempDir()
	now := time.Now().UnixNano()
	frame := func(rec walRecord) []byte {
		b, ok := encodeRecord(rec)
		if !ok {
			t.Fatalf("encodeRecord(%+v) failed", rec)
		}
		return b
	}
	good := append(
		frame(walRecord{Op: opAccepted, ID: "aaaa", Kind: "prove", At: now}),
		frame(walRecord{Op: opDone, ID: "aaaa", At: now, Res: []byte(`"r"`)})...)
	bad := frame(walRecord{Op: opAccepted, ID: "bbbb", Kind: "prove", At: now})
	bad[9] ^= 0xff // flip a payload byte: CRC now fails
	lost := frame(walRecord{Op: opAccepted, ID: "cccc", Kind: "prove", At: now})
	var wal []byte
	wal = append(wal, good...)
	wal = append(wal, bad...)
	wal = append(wal, lost...)
	if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, Config{Journal: newJournal(t, dir)})
	if got, err := m.Get("aaaa"); err != nil || got.State() != StateDone {
		t.Fatalf("record before the corruption must replay: (%v, %v)", got, err)
	}
	for _, id := range []string{"bbbb", "cccc"} {
		if _, err := m.Get(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("job %s after the corruption must be dropped, got %v", id, err)
		}
	}
	q, err := os.ReadFile(filepath.Join(dir, walCorruptName))
	if err != nil || len(q) != len(bad)+len(lost) {
		t.Fatalf("quarantine = %d bytes (%v), want the %d discarded", len(q), err, len(bad)+len(lost))
	}
}

// TestIdempotentSubmit: a second submit under the same key returns the
// original job — live or finished — and the hit is counted.
func TestIdempotentSubmit(t *testing.T) {
	m := newTestManager(t, Config{Journal: newJournal(t, t.TempDir())})
	run := func(ctx context.Context, started func()) (any, error) {
		started()
		return "first", nil
	}
	j1, deduped, err := m.SubmitWith(SubmitOptions{Kind: "prove", IdempotencyKey: "k1"}, run)
	if err != nil || deduped {
		t.Fatalf("first submit = (deduped=%v, %v)", deduped, err)
	}
	<-j1.Done()
	j2, deduped, err := m.SubmitWith(SubmitOptions{Kind: "prove", IdempotencyKey: "k1"},
		func(ctx context.Context, started func()) (any, error) {
			t.Error("deduped RunFunc must not run")
			return nil, nil
		})
	if err != nil || !deduped || j2.ID() != j1.ID() {
		t.Fatalf("dup submit = (%v, deduped=%v, %v), want the original job", j2, deduped, err)
	}
	if st := m.Snapshot(); st.Journal.DedupHits != 1 || st.Submitted != 1 {
		t.Fatalf("stats = %+v, want dedup_hits=1 submitted=1", st)
	}
	// A different key is a different job.
	j3, deduped, err := m.SubmitWith(SubmitOptions{Kind: "prove", IdempotencyKey: "k2"}, run)
	if err != nil || deduped || j3.ID() == j1.ID() {
		t.Fatalf("distinct key submit = (%v, deduped=%v, %v), want a fresh job", j3, deduped, err)
	}
}

// TestIdempotencySurvivesRestart: the dedup key is journaled with the
// accepted record, so a retried submit after a crash still lands on the
// original job.
func TestIdempotencySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	m1 := New(Config{Journal: newJournal(t, dir)})
	m1.Start()
	j1, _, err := m1.SubmitWith(SubmitOptions{Kind: "prove", IdempotencyKey: "retry-key"},
		func(ctx context.Context, started func()) (any, error) {
			started()
			return "done-before-crash", nil
		})
	if err != nil {
		t.Fatal(err)
	}
	<-j1.Done()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m1.Shutdown(ctx)

	m2 := newTestManager(t, Config{Journal: newJournal(t, dir)})
	j2, deduped, err := m2.SubmitWith(SubmitOptions{Kind: "prove", IdempotencyKey: "retry-key"},
		func(ctx context.Context, started func()) (any, error) {
			t.Error("deduped RunFunc must not run after restart")
			return nil, nil
		})
	if err != nil || !deduped || j2.ID() != j1.ID() {
		t.Fatalf("post-restart dup submit = (%v, deduped=%v, %v), want the pre-crash job", j2, deduped, err)
	}
}

// TestJournalCompaction: once evictions leave enough dead records, a
// sweep rewrites the WAL down to the live set — and the compacted file
// still replays.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	jl := newJournal(t, dir)
	m := newTestManager(t, Config{Journal: jl, TTL: 20 * time.Millisecond, SweepEvery: 5 * time.Millisecond})
	// 3 records per finished job (accepted/started/done): 40 jobs is well
	// past the 2*live+compactSlack threshold once they evict.
	for i := 0; i < 40; i++ {
		j, err := m.Submit("prove", func(ctx context.Context, started func()) (any, error) {
			started()
			return i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
	}
	waitFor(t, 5*time.Second, "compaction", func() bool {
		return m.Snapshot().Journal.Compactions >= 1
	})
	waitFor(t, 5*time.Second, "eviction of all jobs", func() bool {
		return m.Snapshot().Retained == 0
	})
	if recs := m.Snapshot().Journal.Records; recs > 2*compactSlack {
		t.Fatalf("records after compaction = %d, want the dead weight gone", recs)
	}
}

// TestJournalCompactionFaults: a compaction that fails before its rename
// keeps the old WAL, leaves no temp file and stays appendable; one whose
// directory fsync fails has already swapped the file, so the journal must
// follow it — an append that landed in the unlinked old file would be
// lost to the next boot. Both are counted.
func TestJournalCompactionFaults(t *testing.T) {
	cases := []struct {
		name      string
		point     string
		fault     faultinject.Fault
		compacted uint64
	}{
		{"torn rewrite", faultinject.PointJournalCompact,
			faultinject.Fault{Kind: faultinject.KindPartialWrite, Bytes: 10}, 0},
		{"directory fsync", faultinject.PointDirSync,
			faultinject.Fault{Kind: faultinject.KindError}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			jl := newJournal(t, dir)
			m1 := New(Config{Journal: jl})
			m1.Start()
			run := func(m *Manager, res string) *Job {
				t.Helper()
				j, err := m.Submit("prove", func(ctx context.Context, started func()) (any, error) {
					started()
					return res, nil
				})
				if err != nil {
					t.Fatal(err)
				}
				<-j.Done()
				return j
			}
			before := run(m1, "before")

			disarm := faultinject.Arm(tc.point, tc.fault)
			jl.compact(m1.liveWALRecords)
			disarm()
			st := m1.Snapshot().Journal
			if st.CompactErrors != 1 || st.Compactions != tc.compacted {
				t.Fatalf("compact_errors=%d compactions=%d, want 1 and %d", st.CompactErrors, st.Compactions, tc.compacted)
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
				t.Fatalf("failed compaction left temp files: %v", tmps)
			}
			after := run(m1, "after")
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			m1.Shutdown(ctx)

			m2 := newTestManager(t, Config{Journal: newJournal(t, dir)})
			for _, j := range []*Job{before, after} {
				if got, err := m2.Get(j.ID()); err != nil || got.State() != StateDone {
					t.Fatalf("job %s after restart = (%v, %v), want it replayed as done", j.ID(), got, err)
				}
			}
			if torn := m2.Snapshot().Journal.TornRecords; torn != 0 {
				t.Fatalf("torn_records = %d after a failed compaction, want an intact WAL", torn)
			}
		})
	}
}

// TestJournalFirstBootSyncsDir: the first boot creates jobs.wal, and the
// "fsync before 202" promise needs that directory entry durable too. The
// fsync is observable through its fault point: failing it is booked, and
// costs durability only — the journal still records and replays.
func TestJournalFirstBootSyncsDir(t *testing.T) {
	dir := t.TempDir()
	defer faultinject.Reset()
	disarm := faultinject.Arm(faultinject.PointDirSync, faultinject.Fault{Kind: faultinject.KindError})
	m1 := New(Config{Journal: newJournal(t, dir)})
	disarm()
	if errs := m1.Snapshot().Journal.AppendErrors; errs != 1 {
		t.Fatalf("append_errors = %d after a failed first-boot directory fsync, want 1 (was the directory synced at all?)", errs)
	}
	m1.Start()
	j, err := m1.Submit("prove", func(ctx context.Context, started func()) (any, error) {
		started()
		return "ok", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m1.Shutdown(ctx)

	m2 := newTestManager(t, Config{Journal: newJournal(t, dir)})
	if got, err := m2.Get(j.ID()); err != nil || got.State() != StateDone {
		t.Fatalf("job after restart = (%v, %v), want it replayed", got, err)
	}
	if errs := m2.Snapshot().Journal.AppendErrors; errs != 0 {
		t.Fatalf("append_errors = %d on a clean boot, want 0", errs)
	}
}

// TestOpenJournalSweepsCompactionTemps: a crash mid-compaction strands a
// temp file beside the WAL (jobs.wal.tmp from older binaries,
// jobs.wal.<random>.tmp now); opening the journal removes it and leaves
// the WAL and the quarantined tail alone.
func TestOpenJournalSweepsCompactionTemps(t *testing.T) {
	dir := t.TempDir()
	now := time.Now().UnixNano()
	rec, _ := encodeRecord(walRecord{Op: opAccepted, ID: "kept", Kind: "prove", At: now, Req: []byte(`{}`)})
	done, _ := encodeRecord(walRecord{Op: opDone, ID: "kept", At: now, Res: []byte(`"r"`)})
	rec = append(rec, done...)
	for name, data := range map[string][]byte{
		walName:                 rec,
		walName + ".tmp":        rec[:5],
		walName + ".987654.tmp": rec[:9],
		walCorruptName:          []byte("torn"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	jl := newJournal(t, dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range entries {
		names = append(names, ent.Name())
	}
	if len(names) != 2 || names[0] != walName || names[1] != walCorruptName {
		t.Fatalf("journal dir after open = %v, want only %s and %s", names, walName, walCorruptName)
	}
	m := newTestManager(t, Config{Journal: jl})
	if st := m.Snapshot().Journal; st.Replayed != 1 || st.TornRecords != 0 {
		t.Fatalf("journal after sweep = %+v, want the planted job replayed", st)
	}
}

// TestJournalAppendFaultDegrades: an armed jobs.journal.append fault
// costs durability (counted), never availability — the job still runs.
func TestJournalAppendFaultDegrades(t *testing.T) {
	defer faultinject.Reset()
	disarm := faultinject.Arm(faultinject.PointJournalAppend, faultinject.Fault{
		Kind: faultinject.KindError, Err: errors.New("injected append fault"),
	})
	defer disarm()
	m := newTestManager(t, Config{Journal: newJournal(t, t.TempDir())})
	j, err := m.Submit("prove", func(ctx context.Context, started func()) (any, error) {
		started()
		return "served", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if res, jerr := j.Result(); jerr != nil || res != "served" {
		t.Fatalf("job under append fault = (%v, %v), want it to serve", res, jerr)
	}
	if st := m.Snapshot(); st.Journal.AppendErrors == 0 {
		t.Fatalf("append_errors = 0, want the fault counted")
	}
}

// TestJournalReplayFaultStartsEmpty: an injected replay fault models an
// unreadable WAL — the manager boots empty instead of crashing.
func TestJournalReplayFaultStartsEmpty(t *testing.T) {
	dir := t.TempDir()
	m1 := New(Config{Journal: newJournal(t, dir)})
	m1.Start()
	j, err := m1.Submit("prove", func(ctx context.Context, started func()) (any, error) {
		started()
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m1.Shutdown(ctx)

	defer faultinject.Reset()
	disarm := faultinject.Arm(faultinject.PointJournalReplay, faultinject.Fault{
		Kind: faultinject.KindError, Err: errors.New("injected replay fault"),
	})
	defer disarm()
	m2 := newTestManager(t, Config{Journal: newJournal(t, dir)})
	if _, err := m2.Get(j.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after replay fault = %v, want ErrNotFound (booted empty)", err)
	}
	if st := m2.Snapshot(); st.Journal.TornRecords != 1 {
		t.Fatalf("torn_records = %d, want the quarantined replay counted", st.Journal.TornRecords)
	}
}

// FuzzJournalDecode is the decoder-hardening gate: arbitrary bytes —
// including attacker-controlled length prefixes — must never panic,
// never size an allocation past the stream, and must leave a clean
// re-scannable prefix behind.
func FuzzJournalDecode(f *testing.F) {
	good, _ := encodeRecord(walRecord{Op: opAccepted, ID: "fuzzjob", Kind: "prove", At: 1, Req: []byte(`{"x":1}`)})
	done, _ := encodeRecord(walRecord{Op: opDone, ID: "fuzzjob", At: 2, Res: []byte(`"r"`)})
	f.Add(append(append([]byte(nil), good...), done...))
	f.Add(good[:len(good)-3]) // torn tail
	var huge [12]byte
	binary.LittleEndian.PutUint32(huge[0:4], 0xffffffff) // length lies
	f.Add(huge[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		byID := map[string]*replayedJob{}
		var order []*replayedJob
		goodEnd, n, _ := scanWAL(bytes.NewReader(data), int64(len(data)), func(rec walRecord) {
			applyRecord(byID, &order, rec)
		})
		if goodEnd < 0 || goodEnd > int64(len(data)) {
			t.Fatalf("goodEnd %d out of range [0, %d]", goodEnd, len(data))
		}
		// The intact prefix must re-scan cleanly with identical results —
		// that is what replay truncates to and appends after.
		end2, n2, clean := scanWAL(bytes.NewReader(data[:goodEnd]), goodEnd, func(walRecord) {})
		if !clean || end2 != goodEnd || n2 != n {
			t.Fatalf("rescan of intact prefix = (%d, %d, %v), want (%d, %d, true)",
				end2, n2, clean, goodEnd, n)
		}
	})
}
