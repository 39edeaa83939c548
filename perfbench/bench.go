package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// bench is the state of one run: its parameters, the servers it started,
// the operation tally and the metrics it reports.
type bench struct {
	name    string
	seed    uint64
	seconds time.Duration
	tracing bool
	server  string // wccserve binary
	work    string // per-run working directory: data directories
	out     string // .bench_build: traces and determinism records
	source  string // digest of the source tree under test

	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	problems []string // wrong answers, refused operations, drifting counts
	notes    []string // human-readable figures with sample counts
	servers  []*server
	stopping bool // set on a signal: no further server may start
	dirs     int

	metrics map[string]metric
	tr      *tracer // non-nil while a traced pass records spans

	gndData, gridData *dataset // query-storm inputs, built once per run
}

func newBench(name string, seed uint64, seconds time.Duration, tracing bool, server, work, out string) *bench {
	return &bench{
		name: name, seed: seed, seconds: seconds, tracing: tracing,
		server: server, work: work, out: out,
		metrics: make(map[string]metric),
	}
}

// op tallies one attempted operation; a non-nil err is a failed or
// refused operation and a wrong answer both, and is recorded.
func (b *bench) op(err error) bool {
	b.attempted.Add(1)
	if err == nil {
		return true
	}
	b.failed.Add(1)
	b.problem("%v", err)
	return false
}

// problem records a correctness failure. Only the first few are kept
// verbatim; the failed count carries the rest.
func (b *bench) problem(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

func (b *bench) notef(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// figure records a named figure with its unit and sample count in the
// human-readable report (not in the JSON line).
func (b *bench) figure(name string, value float64, unit string, samples int) {
	b.notef("figure %-44s %14.6g %s (n=%d)", name, value, unit, samples)
}

func (b *bench) set(name string, value float64, unit string) {
	b.metrics[name] = metric{Value: value, Unit: unit}
}

// freshDir returns a new empty data directory under the run's working
// directory.
func (b *bench) freshDir() string {
	b.mu.Lock()
	b.dirs++
	d := filepath.Join(b.work, fmt.Sprintf("data-%d", b.dirs))
	b.mu.Unlock()
	return d
}

// machineContext describes where and on what a result was measured.
func machineContext(root, source string, seed uint64) string {
	return fmt.Sprintf("gomaxprocs=%d nproc=%d cpu=%q go=%s commit=%s source=%s seed=%d",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(),
		commitOf(root), source, seed)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitOf is the checked-out commit, or "none" outside a git work tree
// (benchmark checkouts are plain file trees; sourceDigest identifies
// those).
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under root except
// build output, so results from the same tree can be matched without
// git.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// checkCounts asserts that exact counts repeat across runs of one seed
// on one source tree: the first run records them under out/counts, and
// every later run must reproduce each recorded value. A count that
// drifts is a determinism bug, so it fails the run.
func (b *bench) checkCounts(counts map[string]int64) {
	dir := filepath.Join(b.out, "counts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		b.problem("determinism record: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.source, b.seed))
	recorded := map[string]int64{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &recorded); err != nil {
			b.problem("determinism record %s: %v", path, err)
			return
		}
	}
	changed := false
	for k, v := range counts {
		old, ok := recorded[k]
		switch {
		case !ok:
			recorded[k] = v
			changed = true
		case old != v:
			b.problem("exact count %s drifted across runs of seed %d: recorded %d, now %d", k, b.seed, old, v)
		}
	}
	if !changed {
		return
	}
	data, _ := json.Marshal(recorded)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.problem("determinism record: %v", err)
	}
}
