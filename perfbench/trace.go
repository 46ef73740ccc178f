package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the public call. async marks a span that ran on another
// goroutine concurrently with its parent (the background saver): it is
// reported but not subtracted from the parent's self time.
type span struct {
	name       string
	parent     int32
	async      bool
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory for the whole run; dump writes them out at
// exit. Recording is off unless the current iteration is traced, so an
// untraced iteration pays one boolean test per call site.
type tracer struct {
	on    bool // set between iterations only
	epoch time.Time
	mu    sync.Mutex // the saver goroutine records concurrently
	spans []span
}

func (t *tracer) begin(name string, parent int32) int32 { return t.open(name, parent, false) }

func (t *tracer) beginAsync(name string, parent int32) int32 { return t.open(name, parent, true) }

func (t *tracer) open(name string, parent int32, async bool) int32 {
	if !t.on {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, async: async, start: now})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// children returns the spans whose parent is id.
func (t *tracer) children(id int32) []span {
	if id < 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.parent == id {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part its synchronous children
// cover. The benchmark's layer spans are leaves, so this is nonzero only
// for an iteration's root span, where it is the residual of the sum check.
func (t *tracer) selfTime(id int32) time.Duration {
	if id < 0 {
		return 0
	}
	t.mu.Lock()
	d := t.spans[id].end - t.spans[id].start
	t.mu.Unlock()
	for _, c := range t.children(id) {
		if !c.async {
			d -= c.end - c.start
		}
	}
	return d
}

// sums totals the children of id by name, and appends every child's
// duration in ms under its name to durs.
func (t *tracer) sums(id int32, durs map[string][]float64) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, c := range t.children(id) {
		d := c.end - c.start
		out[c.name] += d
		durs[c.name] = append(durs[c.name], d.Seconds()*1e3)
	}
	return out
}

// dump writes every span as one JSON object per line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range t.spans {
		rec := struct {
			ID      int    `json:"id"`
			Name    string `json:"name"`
			Parent  int32  `json:"parent"`
			Async   bool   `json:"async,omitempty"`
			StartUS int64  `json:"start_us"`
			EndUS   int64  `json:"end_us"`
		}{i, s.name, s.parent, s.async, s.start.Microseconds(), s.end.Microseconds()}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("span dump: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return f.Close()
}

// printSpans prints, per span name, the calls and time per traced
// iteration (medians), then the sum check: the iteration's product time
// against the sum of its synchronous layer spans.
func (b *bench) printSpans() {
	calls := map[string][]float64{}
	total := map[string][]float64{}
	async := map[string]bool{}
	var wall, covered, resid []float64
	for _, s := range b.samples {
		if !s.traced {
			continue
		}
		n := map[string]float64{}
		for _, c := range b.tr.children(s.root) {
			n[c.name]++
			async[c.name] = c.async
		}
		for name, d := range b.tr.sums(s.root, map[string][]float64{}) {
			calls[name] = append(calls[name], n[name])
			total[name] = append(total[name], d.Seconds()*1e3)
		}
		r := b.tr.selfTime(s.root).Seconds() * 1e3
		wall = append(wall, s.wall.Seconds()*1e3)
		covered = append(covered, s.wall.Seconds()*1e3-r)
		resid = append(resid, r)
	}
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	b.logf("layer spans per traced iteration (medians; each span is a leaf, so self time = total):")
	b.logf("  %-24s %8s %12s", "span", "calls", "ms")
	for _, n := range names {
		tag := ""
		if async[n] {
			tag = "  (background goroutine, overlaps the build; not in the sum)"
		}
		b.logf("  %-24s %8.0f %12.3f%s", n, median(calls[n]), median(total[n]), tag)
	}
	b.logf("sum check: product %.3f ms = layer spans %.3f ms + residual (root self time) %.3f ms (%.2f%%)",
		median(wall), median(covered), median(resid), 100*median(resid)/median(wall))
}
