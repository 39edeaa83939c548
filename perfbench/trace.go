package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
)

// span is one timed call: name, start and end relative to the trace
// origin, and the index of the span that was open when it began (-1 at
// the top).
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
}

// tracer keeps spans in memory until the run ends. The layer replay is
// one goroutine, so open spans form a stack; spans recorded from other
// goroutines (client requests, store I/O on the compaction goroutine)
// are leaves under whatever span is open at the time.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it and
// returns its duration.
func (t *tracer) begin(name string) func() time.Duration {
	t.mu.Lock()
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	start := time.Since(t.t0)
	t.spans = append(t.spans, span{Name: name, Start: start, Parent: parent})
	t.open = append(t.open, id)
	t.mu.Unlock()
	return func() time.Duration {
		t.mu.Lock()
		defer t.mu.Unlock()
		end := time.Since(t.t0)
		t.spans[id].End = end
		if n := len(t.open); n > 0 && t.open[n-1] == id {
			t.open = t.open[:n-1]
		}
		return end - start
	}
}

// leaf records an already finished span under the open one.
func (t *tracer) leaf(name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0), Parent: parent})
}

// span records a client-side span from start to now when the run is
// recording; it costs one nil check otherwise.
func (b *bench) span(name string, start time.Time) {
	if b.tr != nil {
		b.tr.leaf(name, start, time.Now())
	}
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, fn func()) time.Duration {
	end := t.begin(name)
	fn()
	return end()
}

// selfLayers are the modules whose self time the traced run reports.
var selfLayers = []string{"graph", "store", "dynamic", "parallel", "service", "http", "algo"}

// selfTimes sums, per layer (the span name up to its first dot), each
// span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		if s.End < s.Start {
			continue // never closed
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += s.End - s.Start - covered(s, children[i])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		start, end := max(k.Start, parent.Start), min(k.End, parent.End)
		if end <= start {
			continue
		}
		if start > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = start, end
		} else {
			curEnd = max(curEnd, end)
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// write stores the spans as JSON for later inspection.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// countingFS is the store's filesystem seam with counters: bytes
// written, every fsync (file and directory) with its duration, and
// snapshot renames, one per compaction. Each fsync is also a span under
// whatever call is open, so store I/O shows as a child of the layer that
// caused it.
type countingFS struct {
	fault.FS
	tr *tracer

	mu          sync.Mutex
	bytes       int64
	syncs       []time.Duration
	snapRenames int
	// lastWALSync ends the most recent append's fsync; a compaction
	// starts right after it, so the WAL rename that ends the compaction
	// gives its duration.
	lastWALSync time.Time
	compactions []time.Duration
}

func newCountingFS(tr *tracer) *countingFS { return &countingFS{FS: fault.OS{}, tr: tr} }

// ioCounts is a snapshot of the counters, for deltas around a call.
type ioCounts struct {
	bytes       int64
	syncs       int
	snapRenames int
	compactions int
}

func (c *countingFS) counts() ioCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ioCounts{bytes: c.bytes, syncs: len(c.syncs), snapRenames: c.snapRenames, compactions: len(c.compactions)}
}

func (a ioCounts) minus(b ioCounts) ioCounts {
	return ioCounts{a.bytes - b.bytes, a.syncs - b.syncs, a.snapRenames - b.snapRenames, a.compactions - b.compactions}
}

// syncsSince and compactionsSince return the durations recorded after a
// snapshot of the counters.
func (c *countingFS) syncsSince(from ioCounts) samples {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append(samples(nil), c.syncs[from.syncs:]...)
}

func (c *countingFS) compactionsSince(from ioCounts) samples {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append(samples(nil), c.compactions[from.compactions:]...)
}

func (c *countingFS) recordSync(name string, start time.Time) {
	end := time.Now()
	c.mu.Lock()
	c.syncs = append(c.syncs, end.Sub(start))
	if name == "wal.log" {
		c.lastWALSync = end
	}
	c.mu.Unlock()
	c.tr.leaf("store.fsync", start, end)
}

func (c *countingFS) OpenFile(path string, flag int, perm fs.FileMode) (fault.File, error) {
	f, err := c.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, name: filepath.Base(path)}, nil
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	err := c.FS.Rename(oldpath, newpath)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch filepath.Base(newpath) {
	case "snapshot.bin", "snapshot.map":
		c.snapRenames++
	case "wal.log":
		if !c.lastWALSync.IsZero() {
			c.compactions = append(c.compactions, time.Since(c.lastWALSync))
		}
	}
	return nil
}

func (c *countingFS) SyncDir(path string) error {
	start := time.Now()
	err := c.FS.SyncDir(path)
	c.recordSync("dir", start)
	return err
}

type countingFile struct {
	fault.File
	fs   *countingFS
	name string
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.bytes += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *countingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.recordSync(f.name, start)
	return err
}

// traceRun is the --trace 1 mode. It runs the workload's end-to-end
// phase twice, half the time each: untraced, then with a span around
// every client call, and reports the difference of the headline op
// medians as the tracing overhead. Then it replays every workload's
// generated inputs through direct calls into each layer's public
// functions (see layers.go) and reports the per-layer metrics.
func traceRun(b *bench, run func(*bench) error) error {
	full := b.seconds
	b.seconds = full / 2
	if err := run(b); err != nil {
		return err
	}
	untraced := b.metrics[mOp].Value
	b.metrics = make(map[string]metric)
	b.tr = newTracer()
	if err := run(b); err != nil {
		return err
	}
	traced := b.metrics[mOp].Value
	clientSpans := len(b.tr.spans)
	b.seconds = full
	b.metrics = make(map[string]metric)
	b.notef("tracing: headline op untraced %.6g ms, traced %.6g ms", untraced, traced)

	replay := newTracer()
	b.tr = replay
	if err := replayLayers(b, replay); err != nil {
		return err
	}
	b.set("trace.overhead_pct", 100*(traced-untraced)/untraced, "%")
	b.set("trace.spans", float64(clientSpans+len(replay.spans)), "count")
	self := replay.selfTimes()
	for _, l := range selfLayers {
		b.set(l+".self_s", self[l].Seconds(), "s")
	}
	b.notef("harness self time %.4f s (replay spans minus the layer calls they cover)", self["replay"].Seconds())
	path := filepath.Join(b.out, "trace", fmt.Sprintf("%s-seed%d.json", b.name, b.seed))
	if err := replay.write(path); err != nil {
		return err
	}
	b.notef("spans written to %s", path)
	return nil
}
