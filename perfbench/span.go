package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a call the benchmark made
// into a layer (recorded here), or a slice the program reported through its
// TraceSink (imported as a child of the Run span that produced it). Times are
// nanoseconds since the Unix epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so timed runs pass nil and pay only the nil checks.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span under parent and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	return t.add(name, parent, time.Now().UnixNano(), 0)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a complete span and returns its id.
func (t *tracer) add(name string, parent int, start, end int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap each other (parallel weave domains)
// and may stick out of the parent; only the union of their coverage inside
// the parent counts, and grandchildren need no special case because they
// lie inside their own parent's coverage.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.dur() - covered
}

// selfTimes sums self time by span name.
func (t *tracer) selfTimes() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range t.spans {
		out[s.Name] += selfTime(s, kids[s.ID])
	}
	return out
}

// importTrace adds the slices of a zsim TraceSink export (Chrome trace-event
// JSON, microsecond timestamps) as children of span parent, named
// "<track>/<slice>" ("phases/bound", "domain/weave", "domain/stall").
func (t *tracer) importTrace(parent int, chromeJSON []byte) (int, error) {
	if t == nil {
		return 0, nil
	}
	var evs []struct {
		Ph  string `json:"ph"`
		Tid int    `json:"tid"`
		Nm  string `json:"name"`
		Ts  int64  `json:"ts"`
		Dur int64  `json:"dur"`
	}
	if err := json.Unmarshal(chromeJSON, &evs); err != nil {
		return 0, fmt.Errorf("parse trace export: %w", err)
	}
	n := 0
	for _, e := range evs {
		if e.Ph != "X" {
			continue
		}
		track := "phases"
		if e.Tid > 0 {
			track = "domain"
		}
		start := e.Ts * int64(time.Microsecond)
		t.add(track+"/"+e.Nm, parent, start, start+e.Dur*int64(time.Microsecond))
		n++
	}
	return n, nil
}

// write emits every span as one JSON array.
func (t *tracer) write(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return json.NewEncoder(w).Encode(t.spans)
}
