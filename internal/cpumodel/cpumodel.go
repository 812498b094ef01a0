// Package cpumodel describes the CPUs of the paper's experimental setup
// (Table I) as parameterized microarchitecture models. The host running
// this reproduction is not one of the paper's machines — and profiling
// counters (VTune, perf) are not portable — so every hardware-dependent
// analysis consumes one of these models instead: the cache simulator takes
// the cache hierarchy, the top-down model takes the pipeline parameters,
// and the scheduling simulator takes the core topology.
//
// Cache/DRAM figures come straight from Table I; the pipeline parameters
// are the published microarchitecture specifications for each core
// generation (Kaby Lake R, Rocket Lake, Raptor Lake).
package cpumodel

// CacheLevel describes one level of the cache hierarchy.
type CacheLevel struct {
	SizeBytes  int
	Ways       int
	LineSize   int
	LatencyCyc int // load-to-use latency in cycles
}

// CPU is a microarchitecture model.
type CPU struct {
	Name string // e.g. "i9-13900K"

	// Topology (Table I).
	PerfCores int
	EffCores  int
	SMT       int // total hardware threads

	// Memory system (Table I).
	DRAMType    string
	DRAMGBytes  int
	DRAMChans   int
	MemBWGBps   float64 // maximum DRAM bandwidth
	DRAMLatency int     // cycles to DRAM

	L1I, L1D, L2, LLC CacheLevel

	// NodeJS is the node.js version of the paper's Table I testbed (the
	// snarkjs host runtime); informational.
	NodeJS string

	// Pipeline (per performance core).
	FreqGHz          float64
	FetchWidth       int // instructions fetched/decoded per cycle
	IssueWidth       int // pipeline slots per cycle (top-down denominator)
	ROBSize          int
	MispredPenalty   int     // cycles lost per branch misprediction
	PredictorAcc     float64 // baseline conditional-branch predictor accuracy
	IndirectMissRate float64 // mispredict rate for indirect branches (interpreter dispatch)
}

// NewI7_8650U models the Intel i7-8650U (Kaby Lake R, 4C/8T, LPDDR3).
func NewI7_8650U() *CPU {
	return &CPU{
		Name:      "i7-8650U",
		PerfCores: 4, EffCores: 0, SMT: 8,
		DRAMType: "LPDDR3", DRAMGBytes: 16, DRAMChans: 2,
		MemBWGBps: 34.1, DRAMLatency: 170, NodeJS: "v12.22.9",
		L1I:     CacheLevel{SizeBytes: 32 << 10, Ways: 8, LineSize: 64, LatencyCyc: 4},
		L1D:     CacheLevel{SizeBytes: 32 << 10, Ways: 8, LineSize: 64, LatencyCyc: 4},
		L2:      CacheLevel{SizeBytes: 256 << 10, Ways: 4, LineSize: 64, LatencyCyc: 12},
		LLC:     CacheLevel{SizeBytes: 8 << 20, Ways: 16, LineSize: 64, LatencyCyc: 42},
		FreqGHz: 1.9, FetchWidth: 4, IssueWidth: 4, ROBSize: 224,
		MispredPenalty: 17, PredictorAcc: 0.94, IndirectMissRate: 0.20,
	}
}

// NewI5_11400 models the Intel i5-11400 (Rocket Lake, 6C/12T, DDR4,
// single channel per Table I).
func NewI5_11400() *CPU {
	return &CPU{
		Name:      "i5-11400",
		PerfCores: 6, EffCores: 0, SMT: 12,
		DRAMType: "DDR4", DRAMGBytes: 8, DRAMChans: 1,
		MemBWGBps: 17.0, DRAMLatency: 230, NodeJS: "v18.19.1",
		L1I:     CacheLevel{SizeBytes: 32 << 10, Ways: 8, LineSize: 64, LatencyCyc: 5},
		L1D:     CacheLevel{SizeBytes: 48 << 10, Ways: 12, LineSize: 64, LatencyCyc: 5},
		L2:      CacheLevel{SizeBytes: 512 << 10, Ways: 8, LineSize: 64, LatencyCyc: 13},
		LLC:     CacheLevel{SizeBytes: 12 << 20, Ways: 12, LineSize: 64, LatencyCyc: 48},
		FreqGHz: 2.6, FetchWidth: 5, IssueWidth: 5, ROBSize: 352,
		MispredPenalty: 19, PredictorAcc: 0.955, IndirectMissRate: 0.12,
	}
}

// NewI9_13900K models the Intel i9-13900K (Raptor Lake, 8P+16E/32T, DDR5,
// four channels per Table I).
func NewI9_13900K() *CPU {
	return &CPU{
		Name:      "i9-13900K",
		PerfCores: 8, EffCores: 16, SMT: 32,
		DRAMType: "DDR5", DRAMGBytes: 32, DRAMChans: 4,
		MemBWGBps: 89.6, DRAMLatency: 430, NodeJS: "v22.2.0",
		L1I:     CacheLevel{SizeBytes: 32 << 10, Ways: 8, LineSize: 64, LatencyCyc: 5},
		L1D:     CacheLevel{SizeBytes: 48 << 10, Ways: 12, LineSize: 64, LatencyCyc: 5},
		L2:      CacheLevel{SizeBytes: 2 << 20, Ways: 16, LineSize: 64, LatencyCyc: 15},
		LLC:     CacheLevel{SizeBytes: 36 << 20, Ways: 12, LineSize: 64, LatencyCyc: 66},
		FreqGHz: 5.4, FetchWidth: 6, IssueWidth: 6, ROBSize: 512,
		MispredPenalty: 21, PredictorAcc: 0.965, IndirectMissRate: 0.08,
	}
}

// All returns the three Table I CPUs in paper order.
func All() []*CPU {
	return []*CPU{NewI7_8650U(), NewI5_11400(), NewI9_13900K()}
}

// TotalThreads returns the number of hardware threads (SMT).
func (c *CPU) TotalThreads() int { return c.SMT }

// TotalCores returns the number of physical cores.
func (c *CPU) TotalCores() int { return c.PerfCores + c.EffCores }

// EffCoreSpeedFactor is the relative throughput of an efficiency core
// versus a performance core (used by the scheduling simulator for the
// hybrid i9).
const EffCoreSpeedFactor = 0.55

// CoreSpeed returns the relative speed of hardware thread t under the
// model's scheduling order: performance cores first (one thread each),
// then efficiency cores, then the SMT sibling threads (which add only a
// fraction of a core's throughput).
func (c *CPU) CoreSpeed(t int) float64 {
	switch {
	case t < c.PerfCores:
		return 1.0
	case t < c.PerfCores+c.EffCores:
		return EffCoreSpeedFactor
	default:
		return 0.30 // SMT sibling: ~30% extra throughput
	}
}
