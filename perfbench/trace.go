package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark's own wrappers (never by the program under test). Times are
// nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"` // round or request id
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin reserves a span id and reads the start time.
func (t *tracer) begin() (id, start int64) {
	if t == nil {
		return 0, 0
	}
	return t.nextID.Add(1), int64(time.Since(t.t0))
}

// end records a span begun with begin and returns its duration.
func (t *tracer) end(name string, id, parent, op, start int64) time.Duration {
	if t == nil {
		return 0
	}
	s := span{Name: name, ID: id, Parent: parent, Op: op, Start: start, End: int64(time.Since(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.dur()
}

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.t0)) }

// write dumps every span as gzip-compressed JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

// spanIndex answers the per-layer questions over a finished trace.
type spanIndex struct {
	spans    []span
	children map[int64][]int
}

func (t *tracer) index() *spanIndex {
	x := &spanIndex{spans: t.spans, children: map[int64][]int{}}
	for i, s := range t.spans {
		if s.Parent != 0 {
			x.children[s.Parent] = append(x.children[s.Parent], i)
		}
	}
	return x
}

// named returns the spans called name.
func (x *spanIndex) named(name string) []span {
	var out []span
	for _, s := range x.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the spans called name.
func (x *spanIndex) durations(name string) samples {
	var out samples
	for _, s := range x.named(name) {
		out = append(out, s.dur())
	}
	return out
}

// busy sums the durations of the spans called name.
func (x *spanIndex) busy(name string) time.Duration { return x.durations(name).sum() }

// covered is the part of s's interval that its child spans cover
// (overlapping children, as under parallel discovery, count once).
func (x *spanIndex) covered(s span) time.Duration {
	kids := x.children[s.ID]
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		c := x.spans[k]
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// self sums, over the spans called name, the span duration minus what
// its child spans cover: the layer's own time.
func (x *spanIndex) self(name string) time.Duration {
	var t time.Duration
	for _, s := range x.named(name) {
		t += s.dur() - x.covered(s)
	}
	return t
}
