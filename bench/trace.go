package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded at a layer boundary. Spans are
// recorded only from this package, around calls into the layers'
// public functions; IDs are 1-based, Parent 0 marks an operation root,
// and every span of one operation (build #, epoch #, request #) shares
// its Trace id.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Trace  int32  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in a preallocated slice; slots are claimed with an
// atomic counter, so handler goroutines and generators record without a
// lock. A nil tracer records nothing, which is the untraced pass.
type tracer struct {
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
	t0      time.Time
}

func newTracer(capacity int) *tracer {
	return &tracer{spans: make([]span, capacity), t0: time.Now()}
}

// begin opens a span and returns its id (0 when the tracer is nil or
// full; end ignores 0).
func (t *tracer) begin(trace, parent int32, name string) int32 {
	if t == nil {
		return 0
	}
	i := t.next.Add(1)
	if int(i) > len(t.spans) {
		t.dropped.Add(1)
		return 0
	}
	t.spans[i-1] = span{ID: int32(i), Parent: parent, Trace: trace, Name: name, Start: int64(time.Since(t.t0))}
	return int32(i)
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// do runs fn inside a span.
func (t *tracer) do(trace, parent int32, name string, fn func()) {
	id := t.begin(trace, parent, name)
	fn()
	t.end(id)
}

// recorded returns the closed spans recorded so far.
func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	n := min(int(t.next.Load()), len(t.spans))
	out := make([]span, 0, n)
	for _, s := range t.spans[:n] {
		if s.End >= s.Start && s.ID != 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once; a child reaching outside its parent is clipped).
func selfTimes(spans []span) map[int32]int64 {
	kids := map[int32][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// perTrace sums the durations (seconds) of the spans carrying one of
// the names within each trace, returning one value per trace that has
// any, in trace order: a layer entered twice in one operation counts
// once.
func perTrace(spans []span, names ...string) []float64 {
	sums := map[int32]float64{}
	var order []int32
	for _, s := range spans {
		if !slices.Contains(names, s.Name) {
			continue
		}
		if _, ok := sums[s.Trace]; !ok {
			order = append(order, s.Trace)
		}
		sums[s.Trace] += float64(s.End-s.Start) / 1e9
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]float64, len(order))
	for i, tr := range order {
		out[i] = sums[tr]
	}
	return out
}

// writeTrace dumps the spans as JSON.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
