package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span names starting with harnessPrefix belong to the benchmark itself;
// every other span is a call into a layer of the program.
const harnessPrefix = "bench."

// unitSpans are the harness spans whose time the layer spans must account
// for: a traced set-up, a traced in-process request and a traced
// stage-by-stage compile. The untraced loops and the gates are left out.
var unitSpans = map[string]bool{"bench.setup": true, "bench.request": true, "bench.compile": true}

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer started; parent 0 marks a root span.
type span struct {
	id, parent int
	name       string
	start, end int64
}

// tracer keeps the spans of one traced run in memory; they are written out
// once, when the run ends. A nil *tracer is a valid no-op tracer, so the
// untraced path runs the same code with no clock reads.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	drop  string // spans of this name are not recorded (tests only)
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// open starts a span and returns its id (0 on a nil tracer).
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return 0
	}
	return t.add(name, parent, t.now(), -1)
}

// close ends the span opened as id.
func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].end = end
	t.mu.Unlock()
}

// add records a finished span (end < 0: still open) and returns its id.
func (t *tracer) add(name string, parent int, start, end int64) int {
	if t == nil || name == t.drop {
		return 0
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: start, end: end})
	t.mu.Unlock()
	return id
}

// timed runs f inside a span.
func (t *tracer) timed(name string, parent int, f func()) {
	id := t.open(name, parent)
	f()
	t.close(id)
}

// traceStats is the per-name aggregate of a finished trace.
type traceStats struct {
	durs map[string][]int64 // every span's duration, in record order
	self map[string]int64   // summed self time: duration minus time covered by children
	// cover is the share of the unit spans' time covered by their layer
	// children (0 when the trace has none).
	cover float64
}

// analyze computes self times and layer coverage. A span's self time is
// its duration minus the union of its children's intervals (clipped to the
// span), so overlapping children are not subtracted twice.
func (t *tracer) analyze() traceStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := traceStats{durs: map[string][]int64{}, self: map[string]int64{}}
	children := make([][]int, len(t.spans)+1)
	layers := make([][]int, len(t.spans)+1) // children that are layer calls
	for i, s := range t.spans {
		children[s.parent] = append(children[s.parent], i)
		if !strings.HasPrefix(s.name, harnessPrefix) {
			layers[s.parent] = append(layers[s.parent], i)
		}
	}
	var unitTime, layerTime int64
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		d := s.end - s.start
		st.durs[s.name] = append(st.durs[s.name], d)
		st.self[s.name] += d - covered(t.spans, children[s.id], s.start, s.end)
		if unitSpans[s.name] {
			unitTime += d
			layerTime += covered(t.spans, layers[s.id], s.start, s.end)
		}
	}
	if unitTime > 0 {
		st.cover = float64(layerTime) / float64(unitTime)
	}
	return st
}

// covered returns how much of [lo, hi) the union of the given spans covers.
func covered(spans []span, idx []int, lo, hi int64) int64 {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(idx))
	for _, i := range idx {
		s, e := max(spans[i].start, lo), min(spans[i].end, hi)
		if spans[i].end >= 0 && e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64 = 0, -1, -1
	for _, v := range iv {
		if v[0] > curE {
			total += curE - curS
			curS, curE = v[0], v[1]
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	return total + curE - curS
}

// write dumps the spans as tab-separated id, parent, name, start_ns, end_ns.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.name, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
