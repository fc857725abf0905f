package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer. Start and End
// are nanoseconds since the collector's epoch; Parent indexes the span
// that caused this one in the same collector (-1 for a root); Req is the
// request the span belongs to (0 when it belongs to none).
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
}

// Collector gathers the span buffers of every goroutine that records.
// Spans stay in memory until the run ends; a nil *Collector hands out
// nil Tracers, so tracing off costs one nil check per span.
type Collector struct {
	epoch time.Time
	mu    sync.Mutex
	bufs  []*Tracer
}

// NewCollector starts a collector whose clock reads zero now.
func NewCollector() *Collector { return &Collector{epoch: time.Now()} }

// Tracer returns a span buffer for one goroutine.
func (c *Collector) Tracer() *Tracer {
	if c == nil {
		return nil
	}
	t := &Tracer{epoch: c.epoch}
	c.mu.Lock()
	c.bufs = append(c.bufs, t)
	c.mu.Unlock()
	return t
}

// Spans concatenates every buffer, rewriting parent indexes to the
// combined slice. Call only after every recording goroutine has ended.
func (c *Collector) Spans() []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Span
	for _, t := range c.bufs {
		base := len(out)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// Tracer is a single goroutine's span buffer. A nil *Tracer records
// nothing.
type Tracer struct {
	epoch time.Time
	spans []Span
}

// Begin opens a span and returns its handle (-1 on a nil Tracer).
func (t *Tracer) Begin(name string, parent int, req uint64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, Span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// End closes the span opened as h.
func (t *Tracer) End(h int) {
	if t == nil || h < 0 {
		return
	}
	t.spans[h].End = int64(time.Since(t.epoch))
}

// EndAs closes the span and renames it, for spans whose kind is known
// only once the call returns (a handshake that turned out resumed).
func (t *Tracer) EndAs(h int, name string) {
	if t == nil || h < 0 {
		return
	}
	t.spans[h].Name = name
	t.End(h)
}

// SelfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children counted once, clipped
// to the parent), indexed like spans.
func SelfTimes(spans []Span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the kids' intervals inside p.
func covered(p Span, spans []Span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, p.Start), min(spans[k].End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	started := false
	for _, x := range iv {
		switch {
		case !started:
			curLo, curHi, started = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// spanStats indexes durations and self times by span name.
type spanStats struct {
	dur, self map[string][]float64 // nanoseconds
}

func newSpanStats(spans []Span) spanStats {
	st := spanStats{dur: map[string][]float64{}, self: map[string][]float64{}}
	self := SelfTimes(spans)
	for i, s := range spans {
		st.dur[s.Name] = append(st.dur[s.Name], float64(s.End-s.Start))
		st.self[s.Name] = append(st.self[s.Name], float64(self[i]))
	}
	return st
}

// writeSpans writes the spans as JSON lines to dir/name.
func writeSpans(dir, name string, spans []Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
