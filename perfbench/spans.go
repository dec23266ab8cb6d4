package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation share Job; Parent is the ID of the enclosing span (0 for a
// root). Names are "<layer>.<call>"; a root operation span is named "op".
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Job    int           `json:"job"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps a run's spans in memory until write. A nil *tracer records
// nothing, so untraced phases pay one nil check per call.
type tracer struct {
	origin time.Time
	jobs   atomic.Int64
	mu     sync.Mutex
	spans  []span
	// opsEnd counts the spans recorded by the traced operations; later
	// ones belong to the probes.
	opsEnd int
}

// newTracer starts a tracer whose span times count from now.
func newTracer() *tracer { return &tracer{origin: time.Now()} }

// job allocates the ID the spans of one operation share (0 when untraced).
func (t *tracer) job() int {
	if t == nil {
		return 0
	}
	return int(t.jobs.Add(1))
}

// begin opens a span and returns its ID (0 when untraced).
func (t *tracer) begin(job, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// endOps marks the end of the traced operations: selfShares counts only
// the spans recorded before it.
func (t *tracer) endOps() {
	t.mu.Lock()
	t.opsEnd = len(t.spans)
	t.mu.Unlock()
}

// durations returns the durations of every closed span called name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// layerOf returns the layer a span name belongs to; the root operation
// span's own time is the benchmark's, reported as "other".
func layerOf(name string) string {
	if name == "op" {
		return "other"
	}
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfShares attributes the traced operations' time to layers by span self
// time — a span's duration minus the part its children cover — as a share
// of the summed operation durations. Time inside an operation outside every
// layer span is "other". Spans recorded after endOps (the traced run's
// probes) are not counted.
func (t *tracer) selfShares() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	ops := t.spans[:t.opsEnd]
	children := map[int][]span{}
	var total time.Duration
	for _, s := range ops {
		if s.End == 0 {
			continue
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			total += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for _, s := range ops {
		if s.End == 0 {
			continue
		}
		self[layerOf(s.Name)] += s.End - s.Start - covered(s, children[s.ID])
	}
	out := map[string]float64{}
	for l, d := range self {
		if total > 0 {
			out[l] = float64(d) / float64(total)
		}
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := append([]span(nil), kids...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var sum time.Duration
	curS, curE := iv[0].Start, iv[0].End
	flush := func() {
		s, e := max(curS, parent.Start), min(curE, parent.End)
		if e > s {
			sum += e - s
		}
	}
	for _, k := range iv[1:] {
		if k.Start > curE {
			flush()
			curS, curE = k.Start, k.End
		} else if k.End > curE {
			curE = k.End
		}
	}
	flush()
	return sum
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
