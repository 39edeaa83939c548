// Command perfbench is the repository benchmark: it drives a real
// wccserve process through one of three workloads, checks every answer
// against references it computes itself, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as one JSON line.
//
//	bash perfbench/run.sh --workload query-storm --seed 1 --seconds 30 --trace 0
//
// run.sh builds this package and wccserve into .bench_build/ and then
// runs this binary with the server path filled in. See README.md for the
// workloads, the metrics and which layer metric moves which end-to-end
// metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metric is one reported value; the JSON shape is what the result line
// carries per metric name.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps a --workload name to the function that runs it end to
// end.
var workloads = map[string]func(*bench) error{
	"query-storm":  queryStorm,
	"append-churn": appendChurn,
	"paper-mpc":    paperMPC,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: query-storm | append-churn | paper-mpc")
		seed    = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
		root    = flag.String("root", ".", "repository checkout (for the source digest)")
		server  = flag.String("server", "", "wccserve binary")
		out     = flag.String("out", ".bench_build", "directory for data, traces and determinism records")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *server == "" || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -server, --trace 0|1 and --seconds > 0")
		os.Exit(2)
	}
	work := filepath.Join(*out, "work", strconv.Itoa(os.Getpid()))
	b := newBench(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *server, work, *out)
	// A signal stops every server this run started before the process
	// exits; the stopAll after execute covers the normal paths.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		b.shutdown()
		os.RemoveAll(work)
		os.Exit(3)
	}()

	err := b.execute(run, *root)
	b.stopAll()
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b.printReport()
	res := result{
		Correct:   b.failed.Load() == 0 && len(b.problems) == 0,
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   b.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute records the machine context, runs the workload (end to end or
// traced) and fills b.metrics with exactly the metric set of the mode.
func (b *bench) execute(run func(*bench) error, root string) error {
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return err
	}
	b.source = sourceDigest(root)
	b.notef("context %s", machineContext(root, b.source, b.seed))
	if !b.tracing {
		return run(b)
	}
	return traceRun(b, run)
}

// printReport writes every recorded figure by name, unit and sample
// count, then the problems, so a reader sees the whole run without the
// JSON line.
func (b *bench) printReport() {
	fmt.Printf("workload %s seed %d trace %v\n", b.name, b.seed, b.tracing)
	for _, n := range b.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		fmt.Printf("metric %-44s %14.6g %s\n", n, m.Value, m.Unit)
	}
	attempted, failed := b.attempted.Load(), b.failed.Load()
	fmt.Printf("figure %-44s %14.6g ratio (failed %d of %d)\n", "fail_ratio", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	for _, p := range b.problems {
		fmt.Println("PROBLEM", p)
	}
}
