package cpumodel

import "testing"

func TestTableIValues(t *testing.T) {
	// Spot-check the Table I figures the models must carry.
	i7 := NewI7_8650U()
	if i7.PerfCores != 4 || i7.SMT != 8 || i7.DRAMType != "LPDDR3" ||
		i7.MemBWGBps != 34.1 || i7.LLC.SizeBytes != 8<<20 || i7.DRAMChans != 2 {
		t.Errorf("i7 model diverges from Table I: %+v", i7)
	}
	i5 := NewI5_11400()
	if i5.PerfCores != 6 || i5.SMT != 12 || i5.DRAMType != "DDR4" ||
		i5.MemBWGBps != 17.0 || i5.LLC.SizeBytes != 12<<20 || i5.DRAMChans != 1 {
		t.Errorf("i5 model diverges from Table I: %+v", i5)
	}
	i9 := NewI9_13900K()
	if i9.PerfCores != 8 || i9.EffCores != 16 || i9.SMT != 32 || i9.DRAMType != "DDR5" ||
		i9.MemBWGBps != 89.6 || i9.LLC.SizeBytes != 36<<20 || i9.DRAMChans != 4 {
		t.Errorf("i9 model diverges from Table I: %+v", i9)
	}
}

func TestAll(t *testing.T) {
	if all := All(); len(all) != 3 {
		t.Fatalf("All() returned %d CPUs", len(all))
	}
}

func TestCoreSpeedOrdering(t *testing.T) {
	i9 := NewI9_13900K()
	if i9.CoreSpeed(0) != 1.0 {
		t.Error("P-core speed must be 1.0")
	}
	if i9.CoreSpeed(8) != EffCoreSpeedFactor {
		t.Error("worker 8 must be an E-core")
	}
	if i9.CoreSpeed(24) >= EffCoreSpeedFactor {
		t.Error("worker 24 must be an SMT sibling, slower than an E-core")
	}
	// Homogeneous i7: workers 0-3 are P-cores, 4+ SMT.
	i7 := NewI7_8650U()
	if i7.CoreSpeed(3) != 1.0 || i7.CoreSpeed(4) >= 1.0 {
		t.Error("i7 core speed ordering wrong")
	}
}

func TestTotals(t *testing.T) {
	i9 := NewI9_13900K()
	if i9.TotalCores() != 24 || i9.TotalThreads() != 32 {
		t.Errorf("i9 totals: cores=%d threads=%d", i9.TotalCores(), i9.TotalThreads())
	}
}

func TestPipelineParamsSane(t *testing.T) {
	for _, c := range All() {
		if c.IssueWidth < c.FetchWidth {
			t.Errorf("%s: issue width below fetch width", c.Name)
		}
		if c.FreqGHz <= 0 || c.DRAMLatency <= 0 || c.ROBSize <= 0 {
			t.Errorf("%s: non-positive pipeline parameter", c.Name)
		}
		if c.PredictorAcc <= 0.8 || c.PredictorAcc >= 1 {
			t.Errorf("%s: implausible predictor accuracy %v", c.Name, c.PredictorAcc)
		}
		for _, lvl := range []CacheLevel{c.L1I, c.L1D, c.L2, c.LLC} {
			if lvl.SizeBytes <= 0 || lvl.Ways <= 0 || lvl.LineSize != 64 {
				t.Errorf("%s: malformed cache level %+v", c.Name, lvl)
			}
		}
		// Latency ordering L1 < L2 < LLC < DRAM.
		if !(c.L1D.LatencyCyc < c.L2.LatencyCyc && c.L2.LatencyCyc < c.LLC.LatencyCyc &&
			c.LLC.LatencyCyc < c.DRAMLatency) {
			t.Errorf("%s: latency hierarchy not monotone", c.Name)
		}
	}
}
