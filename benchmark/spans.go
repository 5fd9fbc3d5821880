package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"repro/internal/trace"
)

// span is one timed call into a layer, recorded by the benchmark from outside
// the program. Spans of one operation (a compile, a kernel run, a request)
// share Op; Parent is the id of the span that caused this one, -1 for the
// operation's root. Row names the program row the operation belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Row    string `json:"row,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory until the run ends. A nil
// tracer is the untraced run: opCtx.span then only calls through.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	nextOp int
	cal    *calibrator
}

func newTracer(cal *calibrator) *tracer { return &tracer{t0: time.Now(), cal: cal} }

func (t *tracer) add(name, row string, parent, op int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Row: row, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// opCtx threads one operation's identity through the stage-by-stage drivers.
// It is used from one goroutine at a time.
type opCtx struct {
	t      *tracer
	op     int
	parent int
	row    string
}

// newOp starts a new operation on row. It returns nil on a nil tracer.
func (t *tracer) newOp(row string) *opCtx {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	op := t.nextOp
	t.nextOp++
	t.mu.Unlock()
	return &opCtx{t: t, op: op, parent: -1, row: row}
}

// span times f as a child of the innermost open span of this operation.
func (c *opCtx) span(name string, f func()) {
	if c == nil {
		f()
		return
	}
	start := time.Now()
	// Reserve the id first so children recorded inside f can point at it.
	id := c.t.add(name, c.row, c.parent, c.op, start, start)
	outer := c.parent
	c.parent = id
	f()
	c.parent = outer
	end := time.Since(c.t.t0).Nanoseconds()
	c.t.mu.Lock()
	c.t.spans[id].End = end
	c.t.mu.Unlock()
}

// engineSpanNames maps the span names the program already records (Engine
// tracing, dbrewd's ?trace=1) onto this benchmark's layer.stage names.
var engineSpanNames = map[string]string{
	"rewrite":        "dbrew.rewrite",
	"decode":         "lift.decode",
	"lift":           "lift.translate",
	"optimize":       "opt.optimize",
	"optimize.round": "opt.round",
	"jit":            "jit.compile",
	"fastpath":       "fastpath.compile",
	"cache":          "codecache.lookup",
	"disk":           "diskcache.get",
	"disk_write":     "diskcache.put",
	"admission":      "service.admission",
	"fleet":          "cluster.fetch",
}

// importTrace hangs the program's own spans under the innermost open span of
// the operation, turning the program's depth numbers into parent links. The
// program's offsets are relative to its trace start, which lies inside the
// parent span; anchoring them at the parent's start keeps durations exact and
// start times within the parent.
func (c *opCtx) importTrace(spans []trace.Span) {
	if c == nil || len(spans) == 0 {
		return
	}
	c.t.mu.Lock()
	base := c.t.t0
	if c.parent >= 0 {
		base = base.Add(time.Duration(c.t.spans[c.parent].Start))
	}
	c.t.mu.Unlock()
	var stack []int // span id per depth
	for _, s := range spans {
		name, ok := engineSpanNames[s.Name]
		if !ok {
			name = "engine." + s.Name
		}
		for len(stack) > s.Depth {
			stack = stack[:len(stack)-1]
		}
		parent := c.parent
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		start := base.Add(time.Duration(s.StartNS))
		id := c.t.add(name, c.row, parent, c.op, start, start.Add(time.Duration(s.DurNS)))
		stack = append(stack, id)
	}
}

// decodeWireTrace parses the trace JSON dbrewd returns under ?trace=1.
func decodeWireTrace(raw json.RawMessage) []trace.Span {
	var t struct {
		Spans []trace.Span `json:"spans"`
	}
	if len(raw) == 0 || json.Unmarshal(raw, &t) != nil {
		return nil
	}
	return t.Spans
}

// spanStats aggregates the spans of one name, in seconds at nominal machine
// speed (the spans themselves keep wall-clock times): durations per row, their
// total, and every span's self time — its duration minus its direct children.
type spanStats struct {
	perRow map[string][]float64
	selfs  []float64
	total  float64
}

// rowGeomean is the geometric mean over rows of each row's median duration,
// in seconds; the same averaging the end-to-end timings use.
func (s *spanStats) rowGeomean() float64 {
	if s == nil {
		return 0
	}
	return rowGeomean(s.perRow)
}

// row returns the durations recorded for one row; nil if there are none.
func (s *spanStats) row(name string) []float64 {
	if s == nil {
		return nil
	}
	return s.perRow[name]
}

func (s *spanStats) all() []float64 {
	if s == nil {
		return nil
	}
	var out []float64
	for _, d := range s.perRow {
		out = append(out, d...)
	}
	return out
}

func (t *tracer) stats() map[string]*spanStats {
	out := map[string]*spanStats{}
	if t == nil {
		return out
	}
	speed := t.cal.speed()
	t.mu.Lock()
	defer t.mu.Unlock()
	childSum := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{perRow: map[string][]float64{}}
			out[s.Name] = st
		}
		d := float64(s.End-s.Start) / 1e9 * speed
		st.perRow[s.Row] = append(st.perRow[s.Row], d)
		st.total += d
		st.selfs = append(st.selfs, float64(s.End-s.Start-childSum[i])/1e9*speed)
	}
	return out
}

// write dumps every span as JSON; the traced run calls it once at exit.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
