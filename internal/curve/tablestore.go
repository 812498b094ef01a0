package curve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"zkperf/internal/durable"
	"zkperf/internal/faultinject"
	"zkperf/internal/ff"
	"zkperf/internal/tower"
)

// The fixed-base table store. Generator tables are pure functions of the
// curve — the same ~7.4k points every process, every restart — so they are
// cached process-wide and, when a directory is configured (SetTableDir,
// wired from the serving layer's artifact directory), persisted to disk so
// the precomputation is paid once ever rather than once per boot. Files
// live in internal/durable's sealed envelope, like the provesvc artifact
// store: a corrupt table would silently commit to wrong points — the worst
// possible failure for key generation — so anything invalid is quarantined
// and rebuilt.
//
// Payload format inside the envelope (little-endian):
//
//	curve   u16 len + bytes     group  u8 (1|2)
//	window  u8                  bits   u32 (scalar width)
//	numWindows u32              rowLen u32
//	points  u64 len + encoded affine points (WriteG1Slice/WriteG2Slice),
//	        flattened row-major: windows[w][d] at index w·rowLen+d
var tableMagic = [8]byte{'Z', 'K', 'T', 'B', 'L', 'v', '1', '\n'}

var tablePoints = durable.Points{
	Write:  faultinject.PointTableWrite,
	Rename: faultinject.PointTableRename,
}

// errTableCorrupt tags payload decode failures that quarantine a table file.
var errTableCorrupt = errors.New("curve: corrupt table file")

// tableCache is the process-wide generator-table registry. The data is
// immutable once built; instances bind their own Ops adapter to it
// (FixedBaseTable), so operation counters attribute to the calling curve.
var tableCache struct {
	mu  sync.Mutex
	dir string
	g1  map[string]*fixedBaseData[ff.Element]
	g2  map[string]*fixedBaseData[tower.E2]
}

// TableStats counts fixed-base generator-table provenance for the
// `artifacts` stats block: every DiskLoad is a table build that did not
// have to re-run after a restart.
type TableStats struct {
	Builds      uint64 `json:"builds"`
	DiskLoads   uint64 `json:"disk_loads"`
	DiskWrites  uint64 `json:"disk_writes"`
	Quarantined uint64 `json:"quarantined"`
	WriteErrors uint64 `json:"write_errors"`
}

var tableCounters struct {
	builds      atomic.Uint64
	diskLoads   atomic.Uint64
	diskWrites  atomic.Uint64
	quarantined atomic.Uint64
	writeErrors atomic.Uint64
}

// ReadTableStats snapshots the process-wide table counters.
func ReadTableStats() TableStats {
	return TableStats{
		Builds:      tableCounters.builds.Load(),
		DiskLoads:   tableCounters.diskLoads.Load(),
		DiskWrites:  tableCounters.diskWrites.Load(),
		Quarantined: tableCounters.quarantined.Load(),
		WriteErrors: tableCounters.writeErrors.Load(),
	}
}

// SetTableDir configures (or, with "", disables) disk persistence for
// generator tables and clears the in-memory cache so subsequent lookups
// hit the new directory. It creates dir, sweeps stale *.tmp files from
// interrupted writes, and quarantines any *.zkt that fails validation, so
// startup never trusts a torn file. Tests use the cache clearing to
// simulate a process restart in-process.
func SetTableDir(dir string) error {
	tableCache.mu.Lock()
	defer tableCache.mu.Unlock()
	tableCache.g1 = nil
	tableCache.g2 = nil
	tableCache.dir = ""
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("curve: table dir: %w", err)
	}
	n, err := durable.Sweep(dir, ".zkt", tableMagic)
	if err != nil {
		return fmt.Errorf("curve: table dir: %w", err)
	}
	tableCounters.quarantined.Add(uint64(n))
	tableCache.dir = dir
	return nil
}

// tablePath names the table file for one (curve, group) pair.
func tablePath(dir, curveName string, group int) string {
	return filepath.Join(dir, fmt.Sprintf("%s.g%d.zkt", durable.SafeName(curveName), group))
}

// tableHeader is the decoded fixed-size part of a table payload.
type tableHeader struct {
	curve      string
	group      int
	window     int
	bits       int
	numWindows int
	rowLen     int
}

func readTableHeader(r *bytes.Reader) (tableHeader, error) {
	var h tableHeader
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return h, err
	}
	name := make([]byte, n)
	if _, err := io.ReadFull(r, name); err != nil {
		return h, err
	}
	h.curve = string(name)
	var b [2]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return h, err
	}
	h.group, h.window = int(b[0]), int(b[1])
	var u [3]uint32
	if err := binary.Read(r, binary.LittleEndian, &u); err != nil {
		return h, err
	}
	h.bits, h.numWindows, h.rowLen = int(u[0]), int(u[1]), int(u[2])
	return h, nil
}

func writeTableHeader(w *bytes.Buffer, h tableHeader) {
	binary.Write(w, binary.LittleEndian, uint16(len(h.curve)))
	w.WriteString(h.curve)
	w.WriteByte(byte(h.group))
	w.WriteByte(byte(h.window))
	binary.Write(w, binary.LittleEndian, [3]uint32{uint32(h.bits), uint32(h.numWindows), uint32(h.rowLen)})
}

// headerMatches checks the decoded header against what this build would
// construct; a mismatch (stale window width, wrong curve) is treated the
// same as corruption — quarantine and rebuild.
func (h tableHeader) matches(want tableHeader) error {
	if h != want {
		return fmt.Errorf("%w: header mismatch (have %+v, want %+v)", errTableCorrupt, h, want)
	}
	return nil
}

// sliceWindows re-slices a flat row-major point array into per-window rows.
func sliceWindows[E any](flat []Affine[E], numWindows, rowLen int) ([][]Affine[E], error) {
	if len(flat) != numWindows*rowLen {
		return nil, fmt.Errorf("%w: %d points, want %d×%d", errTableCorrupt, len(flat), numWindows, rowLen)
	}
	windows := make([][]Affine[E], numWindows)
	for w := range windows {
		windows[w] = flat[w*rowLen : (w+1)*rowLen : (w+1)*rowLen]
	}
	return windows, nil
}

// genGroup is what differs between the G1 and G2 generator tables: the
// field ops, the generator, the process cache slot and the slice codec.
type genGroup[E any] struct {
	group int
	ops   Ops[E]
	gen   *Affine[E]
	cache *map[string]*fixedBaseData[E]
	write func(io.Writer, []Affine[E]) error
	read  func(io.Reader) ([]Affine[E], error)
}

// genData returns the generator table data for c in group g, in order of
// preference: process cache, disk, fresh build (persisted when a dir is
// configured). The cache lock covers the whole resolution — builds happen
// at most once per curve per process.
func genData[E any](c *Curve, g genGroup[E]) *fixedBaseData[E] {
	tableCache.mu.Lock()
	defer tableCache.mu.Unlock()
	if d, ok := (*g.cache)[c.Name]; ok {
		return d
	}
	want := tableHeader{
		curve: c.Name, group: g.group, window: fixedBaseWindow, bits: c.Fr.Bits(),
		numWindows: (c.Fr.Bits() + fixedBaseWindow) / fixedBaseWindow,
		rowLen:     1 << (fixedBaseWindow - 1),
	}
	var data *fixedBaseData[E]
	if tableCache.dir != "" {
		path := tablePath(tableCache.dir, c.Name, g.group)
		if payload, err := durable.ReadSealed(path, tableMagic); err == nil {
			if data, err = decodeTable(g, payload, want); err != nil {
				durable.Quarantine(path)
				tableCounters.quarantined.Add(1)
			} else {
				tableCounters.diskLoads.Add(1)
			}
		}
	}
	if data == nil {
		data = newFixedBaseData(g.ops, g.gen, c.Fr.Bits())
		tableCounters.builds.Add(1)
		if tableCache.dir != "" {
			var payload bytes.Buffer
			writeTableHeader(&payload, want)
			flat := make([]Affine[E], 0, want.numWindows*want.rowLen)
			for _, row := range data.windows {
				flat = append(flat, row...)
			}
			err := g.write(&payload, flat)
			if err == nil {
				err = durable.WriteSealed(context.Background(), tablePath(tableCache.dir, c.Name, g.group),
					tablePoints, tableMagic, payload.Bytes())
			}
			if err != nil {
				tableCounters.writeErrors.Add(1)
			} else {
				tableCounters.diskWrites.Add(1)
			}
		}
	}
	if *g.cache == nil {
		*g.cache = make(map[string]*fixedBaseData[E])
	}
	(*g.cache)[c.Name] = data
	return data
}

// decodeTable decodes and validates one persisted table payload.
func decodeTable[E any](g genGroup[E], payload []byte, want tableHeader) (*fixedBaseData[E], error) {
	r := bytes.NewReader(payload)
	h, err := readTableHeader(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errTableCorrupt, err)
	}
	if err := h.matches(want); err != nil {
		return nil, err
	}
	if err := faultinject.Point(context.Background(), faultinject.PointTableLoad); err != nil {
		return nil, fmt.Errorf("%w: %v", errTableCorrupt, err)
	}
	flat, err := g.read(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errTableCorrupt, err)
	}
	windows, err := sliceWindows(flat, h.numWindows, h.rowLen)
	if err != nil {
		return nil, err
	}
	// The first entry is [1]·Gen: a checksum-valid file written for a
	// different generator must still never be trusted.
	if flat[0].Inf || !g.ops.Equal(&flat[0].X, &g.gen.X) || !g.ops.Equal(&flat[0].Y, &g.gen.Y) {
		return nil, fmt.Errorf("%w: table base is not the G%d generator", errTableCorrupt, g.group)
	}
	return &fixedBaseData[E]{window: h.window, bits: h.bits, windows: windows}, nil
}

// G1GenTable returns the (cached, persisted) fixed-base table over the G1
// generator, bound to this curve instance's field ops.
func (c *Curve) G1GenTable() *G1Table {
	data := genData(c, genGroup[ff.Element]{
		group: 1, ops: c.g1ops, gen: &c.G1Gen, cache: &tableCache.g1,
		write: c.WriteG1Slice, read: c.ReadG1Slice,
	})
	return &G1Table{c: c, tab: &FixedBaseTable[ff.Element]{ops: c.g1ops, data: data}}
}

// G2GenTable returns the (cached, persisted) fixed-base table over the G2
// generator, bound to this curve instance's field ops.
func (c *Curve) G2GenTable() *G2Table {
	data := genData(c, genGroup[tower.E2]{
		group: 2, ops: c.g2ops, gen: &c.G2Gen, cache: &tableCache.g2,
		write: c.WriteG2Slice, read: c.ReadG2Slice,
	})
	return &G2Table{c: c, tab: &FixedBaseTable[tower.E2]{ops: c.g2ops, data: data}}
}
