package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one iteration share the
// iteration's root span as their ancestor; parent 0 marks a root.
type span struct {
	name       string
	id, parent int
	start, end time.Duration // offsets from the tracer's origin
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced pass runs the same code with tracing off.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{name: name, id: len(t.spans) + 1, parent: parent, start: time.Since(t.origin)})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].end = time.Since(t.origin)
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval that its children cover. Children may overlap each other; the
// covered part is the union of their intervals, clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		var covered time.Duration
		cur := s.start // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(k.start, cur), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.name] += s.end - s.start - covered
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON ("X"
// complete events, microsecond timestamps), which Perfetto and
// chrome://tracing load directly.
func (t *tracer) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.id, "parent": s.parent},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
