package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"

	"zkperf/internal/backend"
	"zkperf/internal/ff"
	"zkperf/internal/parallel"
	"zkperf/internal/provesvc"
)

// tally is the outcome of a window, counted in proofs: one per proof
// proved or checked.
type tally struct {
	Attempted int
	Failed    int      // refused, errored or wrong
	Wrong     int      // came back, but with the wrong answer
	Notes     []string // first few failures, for the reader
}

func (t *tally) fail(wrong bool, format string, args ...any) {
	t.Failed++
	if wrong {
		t.Wrong++
	}
	if len(t.Notes) < 5 {
		t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
	}
}

// check decides, outside the timed interval, whether every reply was
// right: a verify answer must match its pool entry's label; a prove reply
// must carry the public output x^e computed here and a proof that
// verifies under the circuit's verifying key. Failed items are marked so
// the metrics count only correct work.
func (e *env) check(samples [][]sample) tally {
	var t tally
	byCircuit := map[circuitSpec][]*proofItem{}
	for k := range samples {
		verifyRole := e.w.Clients[k].Role == roleVerify || e.w.Clients[k].Role == roleVerifyBatch
		for i := range samples[k] {
			for j := range samples[k][i].Items {
				it := &samples[k][i].Items[j]
				t.Attempted++
				switch {
				case it.Err != "":
					t.fail(false, "%s e=%d: %s", it.Circuit.Curve, it.Circuit.E, it.Err)
				case verifyRole:
					if want := e.pools[it.Circuit][it.Entry].Valid; it.Valid != want {
						it.Err = "wrong verdict"
						t.fail(true, "%s pool entry %d: valid=%v, want %v", it.Circuit.Curve, it.Entry, it.Valid, want)
					}
				case len(it.Reply.Public) != 1 || it.Reply.Public[0] != it.Circuit.expected(it.X):
					it.Err = "wrong public output"
					t.fail(true, "%s e=%d x=%d: public %v, want %s", it.Circuit.Curve, it.Circuit.E, it.X, it.Reply.Public, it.Circuit.expected(it.X))
				default:
					byCircuit[it.Circuit] = append(byCircuit[it.Circuit], it)
				}
			}
		}
	}
	for cs, items := range byCircuit {
		bad, err := verifyProofs(e.svc, cs, items)
		if err != nil {
			bad = items
			t.Notes = append(t.Notes, err.Error())
		}
		for _, it := range bad {
			it.Err = "proof does not verify"
			t.fail(true, "%s e=%d x=%d: proof does not verify", cs.Curve, cs.E, it.X)
		}
	}
	return t
}

// verifyProofs checks every item's proof against the circuit's verifying
// key and returns the items that fail. The items are split over the cores
// and go through the backend's batch check in chunks, so that checking a
// few thousand 10 ms proofs does not take longer than measuring them did.
func verifyProofs(svc *provesvc.Service, cs circuitSpec, items []*proofItem) ([]*proofItem, error) {
	ctx := context.Background()
	art, err := svc.Registry().Get(ctx, cs.Curve, cs.Backend, cs.source())
	if err != nil {
		return nil, fmt.Errorf("check %+v: %w", cs, err)
	}
	var (
		mu       sync.Mutex
		bad      []*proofItem
		firstErr error
	)
	const chunk = 64
	parallel.Chunks(len(items), runtime.GOMAXPROCS(0), func(lo, hi int) {
		for ; lo < hi; lo += chunk {
			var proofs []backend.Proof
			var publics [][]ff.Element
			var live, failed []*proofItem
			for _, it := range items[lo:min(lo+chunk, hi)] {
				p, pub, err := decodeProof(art.Backend, it)
				if err != nil {
					failed = append(failed, it)
					continue
				}
				proofs, publics, live = append(proofs, p), append(publics, pub), append(live, it)
			}
			verdicts, err := backend.VerifyBatch(ctx, art.Backend, art.VK, proofs, publics)
			for i, v := range verdicts {
				if v != nil {
					failed = append(failed, live[i])
				}
			}
			mu.Lock()
			bad = append(bad, failed...)
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("check %+v: %w", cs, err)
			}
			mu.Unlock()
		}
	})
	return bad, firstErr
}

// decodeProof turns a prove reply back into what Verify consumes: the
// proof and the public vector [1, y].
func decodeProof(bk backend.Backend, it *proofItem) (backend.Proof, []ff.Element, error) {
	raw, err := hex.DecodeString(it.Reply.Proof)
	if err != nil {
		return nil, nil, err
	}
	proof, err := bk.ReadProof(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	fr := bk.Curve().Fr
	public := make([]ff.Element, 2)
	fr.One(&public[0])
	_, err = fr.SetString(&public[1], it.Reply.Public[0])
	return proof, public, err
}
