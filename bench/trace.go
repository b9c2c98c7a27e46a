//go:build unix

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer's public API. Times are nanoseconds since the tracer began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Op     int    `json:"op"` // op index the span belongs to
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Probe marks a child that cannot be observed inside its parent from
	// outside the program: it was timed as an equal-shaped standalone call,
	// so its interval lies outside the parent's and only its duration counts.
	Probe bool `json:"probe,omitempty"`
}

func (s span) duration() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (ids start at 1).
func (t *tracer) begin(name string, op, parent int, probe bool) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op, Start: now, Probe: probe})
	return len(t.spans)
}

// end closes the span and returns its duration in nanoseconds.
func (t *tracer) end(id int) int64 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return t.spans[id-1].duration()
}

// add records a span whose duration was accumulated elsewhere (a probe
// summed over many short calls); it is laid out ending now.
func (t *tracer) add(name string, op, parent int, durationNS int64) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op,
		Start: now - durationNS, End: now, Probe: true})
	return len(t.spans)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus what its
// children explain: the part of its own interval that observed children
// cover (overlapping children counted once) plus the full duration of probe
// children. A negative value means the standalone probes cost more than the
// parent had room for; it is reported, not clipped.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		covered := int64(0)
		var inside []span
		for _, c := range children[s.ID] {
			if c.Probe {
				covered += c.duration()
				continue
			}
			c.Start, c.End = max(c.Start, s.Start), min(c.End, s.End)
			if c.End > c.Start {
				inside = append(inside, c)
			}
		}
		sort.Slice(inside, func(i, j int) bool { return inside[i].Start < inside[j].Start })
		reach := s.Start
		for _, c := range inside {
			if c.End <= reach {
				continue
			}
			covered += c.End - max(c.Start, reach)
			reach = c.End
		}
		self[s.ID] = s.duration() - covered
	}
	return self
}

// writeTrace stores the spans of one workload as JSON.
func writeTrace(path string, spans []span) error {
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printTimeTable prints where the replayed ops' time goes: one row per span
// name in pipeline order, indented under its parent, with the mean duration
// and mean self time per op.
func printTimeTable(w io.Writer, spans []span, ops int) {
	if len(spans) == 0 || ops == 0 {
		return
	}
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	depthOf := func(s span) int {
		d := 0
		for s.Parent != 0 {
			s = byID[s.Parent]
			d++
		}
		return d
	}
	self := selfTimes(spans)
	type row struct {
		name         string
		depth, count int
		total, self  int64
		probe        bool
		first        int
	}
	rows := make(map[string]*row)
	for _, s := range spans {
		key := fmt.Sprintf("%d/%s", depthOf(s), s.Name)
		r := rows[key]
		if r == nil {
			r = &row{name: s.Name, depth: depthOf(s), probe: s.Probe, first: s.ID}
			rows[key] = r
		}
		r.count++
		r.total += s.duration()
		r.self += self[s.ID]
	}
	ordered := make([]*row, 0, len(rows))
	for _, r := range rows {
		ordered = append(ordered, r)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].first < ordered[j].first })
	fmt.Fprintf(w, "  %-34s %7s %12s %12s\n", "span (mean per replayed op)", "calls", "total ms", "self ms")
	for _, r := range ordered {
		name := strings.Repeat("  ", r.depth) + r.name
		if r.probe {
			name += " (probe)"
		}
		fmt.Fprintf(w, "  %-34s %7.1f %12.3f %12.3f\n", name,
			float64(r.count)/float64(ops), float64(r.total)/1e6/float64(ops), float64(r.self)/1e6/float64(ops))
	}
}
