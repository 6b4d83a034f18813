package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans form logical
// trees through parent: a traced replay calls the outer layer, then the inner
// layers on the same input, so a child need not lie inside its parent in
// time — what matters is that the parent's cost includes the child's.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Req    int64  `json:"req"` // request (or training step) id
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write dumps them when the run ends. The
// traced replays run on one goroutine, so it needs no lock.
type tracer struct {
	clock func() time.Duration // time since the tracer started
	spans []span
}

func newTracer() *tracer {
	t0 := time.Now()
	return &tracer{clock: func() time.Duration { return time.Since(t0) }}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int, req int64) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: int64(t.clock()),
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) { t.spans[id-1].End = int64(t.clock()) }

// timed runs f inside a span.
func (t *tracer) timed(name string, parent int, req int64, f func()) {
	id := t.begin(name, parent, req)
	f()
	t.end(id)
}

// selfTimes returns each span's self time: its duration minus the durations
// of its children. Replay noise can make a self time slightly negative; it is
// reported as measured.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// coverage returns, for each root span named root, the sum of its
// descendants' self times divided by the root's duration: the share of the
// root's time that the traced layers account for.
func coverage(spans []span, root string) []float64 {
	self := selfTimes(spans)
	rootOf := make(map[int]int, len(spans))
	var find func(id int) int
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	find = func(id int) int {
		if r, ok := rootOf[id]; ok {
			return r
		}
		s := byID[id]
		r := id
		if s.Parent != 0 {
			r = find(s.Parent)
		}
		rootOf[id] = r
		return r
	}
	covered := map[int]time.Duration{}
	for _, s := range spans {
		if r := find(s.ID); r != s.ID {
			covered[r] += self[s.ID]
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == root && s.dur() > 0 {
			out = append(out, float64(covered[s.ID])/float64(s.dur()))
		}
	}
	return out
}

// durations returns the durations of every span named name.
func durations(spans []span, name string) samples {
	var out samples
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfOf returns the self times of every span named name.
func selfOf(spans []span, name string) samples {
	self := selfTimes(spans)
	var out samples
	for _, s := range spans {
		if s.Name == name {
			out = append(out, self[s.ID])
		}
	}
	return out
}

// write dumps the spans as JSON to path.
func (t *tracer) write(path string) error {
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
