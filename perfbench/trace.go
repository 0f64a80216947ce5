package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Start and End are offsets from
// the tracer's creation; Parent is the index of the enclosing span (-1
// for a root) and Trace groups the spans of one simulation, sweep run or
// update.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Trace  int           `json:"trace"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its index (-1 when off).
func (t *tracer) add(name string, start, end time.Time, parent, trace int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0), Parent: parent, Trace: trace})
	return len(t.spans) - 1
}

// open starts a span whose end is set later by close; children recorded
// in between can name it as their parent.
func (t *tracer) open(name string, start time.Time, parent, trace int) int {
	return t.add(name, start, start, parent, trace)
}

func (t *tracer) close(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = end.Sub(t.t0)
}

// meanMS is the mean duration of the spans with this name in
// milliseconds, 0 when there are none.
func (t *tracer) meanMS(name string) float64 {
	if t == nil {
		return 0
	}
	var sum time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return ms(sum) / float64(n)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
