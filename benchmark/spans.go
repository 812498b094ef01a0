package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call recorded from outside the program: the driver
// wraps each call into a package's public API (and each client request)
// and notes who caused it. Times are nanoseconds since the log's epoch.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: root
	Name    string `json:"name"`
	Request string `json:"request_id,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Self    int64  `json:"self_ns"` // filled in when the log is written
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, which is how an untraced run pays nothing for tracing.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// add records a finished span and returns its ID for use as a parent.
func (l *spanLog) add(parent int, name, request string, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name, Request: request,
		Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds(),
	})
	return id
}

// begin opens a span whose ID children can name before it ends; the
// returned func closes it.
func (l *spanLog) begin(parent int, name string) (id int, end func()) {
	if l == nil {
		return 0, func() {}
	}
	t0 := time.Now()
	id = l.add(parent, name, "", t0, t0)
	return id, func() {
		l.mu.Lock()
		l.spans[id-1].End = time.Since(l.epoch).Nanoseconds()
		l.mu.Unlock()
	}
}

// timed runs fn inside a span.
func (l *spanLog) timed(parent int, name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	l.add(parent, name, "", t0, t1)
	return t1.Sub(t0)
}

// write stores the spans, each with its self time, as one JSON array.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	self := selfTimes(l.spans)
	for i := range l.spans {
		l.spans[i].Self = self[l.spans[i].ID]
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover. Overlapping children are
// counted once and children are clipped to the parent's interval.
func selfTimes(spans []span) map[int]int64 {
	byID := make(map[int]span, len(spans))
	kids := make(map[int][]span)
	for _, s := range spans {
		byID[s.ID] = s
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := make(map[int]int64, len(spans))
	for id, s := range byID {
		cs := kids[id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[id] = s.End - s.Start - covered
	}
	return out
}
