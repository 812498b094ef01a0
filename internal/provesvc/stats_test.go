package provesvc

import (
	"testing"
	"time"

	"zkperf/internal/telemetry"
)

// TestVerifyBatchLatencyObservedOnce pins that /v1/stats verify_batch
// latency and zkp_verify_batch_duration_seconds are one histogram when
// telemetry is on, and that the stats block still works with it off.
func TestVerifyBatchLatencyObservedOnce(t *testing.T) {
	s := New(WithWorkers(1), WithSeed(1))
	reg := s.Telemetry().Registry()
	if s.met.vbLat != reg.Histogram("zkp_verify_batch_duration_seconds", "") {
		t.Fatal("verify batch latency is a second histogram beside the registry's")
	}
	s.met.vbLat.Observe(3 * time.Millisecond)
	if got := s.Stats().VerifyBatch.Latency; got.Count != 1 || got.MeanMs != 3 || got.P50Ms != 4.096 {
		t.Errorf("latency summary = %+v, want one 3 ms sample under the 4.096 ms bound", got)
	}

	off := New(WithWorkers(1), WithSeed(1), WithTelemetry(nil))
	if got := off.Stats().VerifyBatch.Latency; got.Count != 0 {
		t.Errorf("telemetry-off latency summary = %+v, want empty", got)
	}
}

// TestSizeSummary checks the count form: exact mean, bucket-bound
// quantiles by nearest rank.
func TestSizeSummary(t *testing.T) {
	var h telemetry.HistogramMetric
	for _, n := range []int{1, 2, 4} {
		h.ObserveCount(n)
	}
	got := sizeSummary(&h)
	if got.Count != 3 || got.Mean != 7.0/3 || got.P50 != 4 || got.P95 != 8 {
		t.Errorf("sizeSummary = %+v, want count 3, mean 7/3, p50 4, p95 8", got)
	}
}
