package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer's epoch; Parent is 0 for a root span.
type Span struct {
	ID, Parent uint64
	Name       string
	Start, End int64
}

// Tracer keeps spans in memory until the run ends. Each goroutine records
// into its own Track, so recording takes no lock; a nil *Tracer (the
// untraced run) hands out nil Tracks whose methods do nothing.
type Tracer struct {
	epoch time.Time

	mu     sync.Mutex
	tracks []*Track
}

// maxSpansPerTrack bounds one goroutine's span memory; later spans are
// counted in Dropped but not kept.
const maxSpansPerTrack = 1 << 20

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Track returns a new span buffer for one goroutine.
func (t *Tracer) Track() *Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := &Track{t: t, prefix: uint64(len(t.tracks)+1) << 40}
	t.tracks = append(t.tracks, k)
	return k
}

// Track is one goroutine's span buffer.
type Track struct {
	t       *Tracer
	prefix  uint64
	spans   []Span
	dropped int
}

// Begin opens a span and returns its ID (0 when untraced or full).
func (k *Track) Begin(name string, parent uint64) uint64 {
	if k == nil {
		return 0
	}
	if len(k.spans) >= maxSpansPerTrack {
		k.dropped++
		return 0
	}
	id := k.prefix | uint64(len(k.spans)+1)
	k.spans = append(k.spans, Span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(k.t.epoch)), End: -1})
	return id
}

// End closes the span Begin returned.
func (k *Track) End(id uint64) {
	if k == nil || id == 0 {
		return
	}
	k.spans[int(id&(1<<40-1))-1].End = int64(time.Since(k.t.epoch))
}

// Spans returns every closed span of every track. Call it only after the
// recording goroutines have stopped.
func (t *Tracer) Spans() (spans []Span, dropped int) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range t.tracks {
		for _, s := range k.spans {
			if s.End >= 0 {
				spans = append(spans, s)
			}
		}
		dropped += k.dropped
	}
	return spans, dropped
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children count once, and a child's
// time outside its parent does not count).
func selfTimes(spans []Span) map[uint64]int64 {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, c := range kids {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerOf names the layer a span belongs to: its name up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// LayerTime is one layer's share of a traced run.
type LayerTime struct {
	Spans   int     `json:"spans"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// layerTimes sums span count, duration and self time per layer.
func layerTimes(spans []Span) map[string]LayerTime {
	self := selfTimes(spans)
	out := make(map[string]LayerTime)
	for _, s := range spans {
		l := out[layerOf(s.Name)]
		l.Spans++
		l.TotalMs += float64(s.End-s.Start) / 1e6
		l.SelfMs += float64(self[s.ID]) / 1e6
		out[layerOf(s.Name)] = l
	}
	return out
}

// durations returns the sorted durations of every span with this name.
func durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	sort.Float64s(out)
	return out
}

// writeTrace writes the spans (one JSON array per line: id, parent, name,
// start ns, end ns) followed by a summary object, to path.
func writeTrace(path string, spans []Span, summary any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range spans {
		fmt.Fprintf(w, "[%d,%d,%q,%d,%d]\n", s.ID, s.Parent, s.Name, s.Start, s.End)
	}
	if err := json.NewEncoder(w).Encode(summary); err != nil {
		_ = f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
