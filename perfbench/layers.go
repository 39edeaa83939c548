package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"time"

	"repro/internal/algo"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/service"
	"repro/internal/store"
)

// replayLayers feeds every workload's generated inputs, for this run's
// seed, through direct calls into the public functions of each layer and
// sets the per-layer metrics. Each call is a span; store I/O runs through
// a countingFS. The answers are checked like the end-to-end ones.
func replayLayers(b *bench, tr *tracer) error {
	gnd, err := b.gnd()
	if err != nil {
		return err
	}
	grid := b.grid()
	svc, err := b.openService(newCountingFS(tr))
	if err != nil {
		return err
	}
	ids := map[string]string{}
	for _, ds := range []*dataset{gnd, grid} {
		id, err := b.replayCold(tr, svc, ds)
		if err != nil {
			svc.Close()
			return err
		}
		ids[ds.name] = id
	}
	err = b.replayQueries(tr, svc, ids[gnd.name], gnd)
	dir := svc.Config().DataDir
	svc.Close()
	if err != nil {
		return err
	}
	if err := b.replayRestart(tr, dir, ids); err != nil {
		return err
	}
	if err := b.replayAppends(tr); err != nil {
		return err
	}
	return b.replayMPC(tr)
}

// openService opens a durable service over fs in a fresh directory,
// with its log lines discarded.
func (b *bench) openService(fs *countingFS) (*service.Service, error) {
	return service.Open(service.Config{
		DataDir: b.freshDir(), FS: fs,
		Logf: func(string, ...any) {},
	})
}

// replayCold times the layers a cold load crosses for one shape. It
// leaves the graph loaded and solved in svc and returns its ID.
func (b *bench) replayCold(tr *tracer, svc *service.Service, ds *dataset) (string, error) {
	defer tr.begin("replay.cold." + ds.name)()
	sec := func(name string, d time.Duration) { b.set(name+"."+ds.name, d.Seconds(), "s") }

	var g *graph.Graph
	var err error
	sec("graph.parse_s", tr.timed("graph.parse", func() {
		g, err = graph.ReadEdgeListLimit(bytes.NewReader(ds.text), 1<<22, 1<<24)
	}))
	if err != nil {
		return "", fmt.Errorf("parse %s: %w", ds.name, err)
	}
	var labels []graph.Vertex
	sec("graph.components_s", tr.timed("graph.components", func() { labels, _ = graph.Components(g) }))
	b.op(sameLabels(ds, "graph.Components", labels))
	var digest string
	sec("store.digest_s", tr.timed("store.digest", func() { digest = store.DigestGraph(g) }))
	var eng *dynamic.Engine
	sec("dynamic.seed_s", tr.timed("dynamic.seed", func() { eng = dynamic.FromGraph(g) }))
	b.op(countIs(ds, "dynamic.FromGraph", eng.Components()))
	var res *parallel.Result
	sec("parallel.solve_s", tr.timed("parallel.solve", func() { res = parallel.Components(g, parallel.Options{}) }))
	b.op(sameLabels(ds, "parallel.Components", res.Labels))

	// Disk.Put on its own store, with the bytes and fsyncs it costs.
	fs := newCountingFS(tr)
	disk, err := store.Open(b.freshDir(), store.Config{FS: fs})
	if err != nil {
		return "", err
	}
	meta := store.Meta{ID: "g-" + digest[:12], Name: ds.name, Digest: digest, N: g.N(), M: g.M()}
	v0 := store.Version{Digest: digest, N: g.N(), M: g.M(), Components: eng.Components()}
	before := fs.counts()
	sec("store.put_s", tr.timed("store.put", func() { _, err = disk.Put(meta, g, v0) }))
	put := fs.counts().minus(before)
	disk.Close()
	if err != nil {
		return "", fmt.Errorf("put %s: %w", ds.name, err)
	}
	b.set("store.put_bytes."+ds.name, float64(put.bytes), "bytes")
	b.set("store.put_fsyncs."+ds.name, float64(put.syncs), "count")
	g, eng, res = nil, nil, nil

	// The whole load through the service, then the same over HTTP into
	// a second service: the difference is body transfer and the handler.
	var sg *service.StoredGraph
	sec("service.load_s", tr.timed("service.load", func() { sg, err = svc.Load(ds.name, bytes.NewReader(ds.text)) }))
	if !b.op(err) {
		return "", fmt.Errorf("service load %s failed", ds.name)
	}
	var l *service.Labeling
	spec := service.SolveSpec{GraphID: sg.ID, Version: -1, Algo: "parallel"}
	sec("service.solve_miss_s", tr.timed("service.solve_miss", func() { l, err = svc.Solve(spec) }))
	if err == nil && l.Components != ds.count {
		err = fmt.Errorf("%s: service solve found %d components, reference %d", ds.name, l.Components, ds.count)
	}
	b.op(err)

	other, err := b.openService(newCountingFS(tr))
	if err != nil {
		return "", err
	}
	ts := httptest.NewServer(service.NewHandler(other))
	sec("http.load_s", tr.timed("http.load", func() { err = do("POST", ts.URL+"/v1/graphs?name="+ds.name, ds.text, nil) }))
	ts.Close()
	other.Close()
	b.op(err)
	runtime.GC()
	return sg.ID, nil
}

// replayRestart reopens the store holding both graphs loaded cold and
// materializes each: the storage half of a restart.
func (b *bench) replayRestart(tr *tracer, dir string, ids map[string]string) error {
	defer tr.begin("replay.restart")()
	var disk *store.Disk
	var err error
	open := tr.timed("store.open", func() { disk, err = store.Open(dir, store.Config{FS: newCountingFS(tr)}) })
	if err != nil {
		return fmt.Errorf("reopen store: %w", err)
	}
	defer disk.Close()
	b.set("store.open_s", open.Seconds(), "s")
	for name, id := range ids {
		var g *graph.Graph
		d := tr.timed("store.materialize", func() { g, err = disk.Materialize(id, 0) })
		if err == nil && g.N() == 0 {
			err = fmt.Errorf("materialize %s: empty graph", name)
		}
		if !b.op(err) {
			return nil
		}
		b.set("store.materialize_s."+name, d.Seconds(), "s")
	}
	return nil
}

// discardWriter is an in-memory ResponseWriter: the handler's own work
// without a socket.
type discardWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *discardWriter) Header() http.Header  { return w.h }
func (w *discardWriter) WriteHeader(code int) { w.status = code }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *discardWriter) reset() {
	clear(w.h)
	w.status = http.StatusOK
	w.body = w.body[:0]
}

// rewindBody lets one request carry the same body again without an
// allocation per call.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// allocsPer runs fn n times and returns the nanoseconds and heap
// allocations per call (runtime.MemStats Mallocs delta).
func allocsPer(n int, fn func(i int)) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(d.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// replayQueries measures the cache-hit query path in the service and in
// its HTTP handler (no socket), for single queries and 64-query batches.
func (b *bench) replayQueries(tr *tracer, svc *service.Service, id string, ds *dataset) error {
	defer tr.begin("replay.queries")()
	spec := service.SolveSpec{GraphID: id, Version: -1, Algo: "parallel"}
	ps := pairs(rngFor(b.seed, streamQueries+2), ds.n, 1<<12)
	mask := len(ps) - 1
	c0 := svc.Counters()
	wrong := 0
	const singles = 1 << 20
	check := func(p [2]graph.Vertex, got bool) {
		if got != (ds.labels[p[0]] == ds.labels[p[1]]) {
			wrong++
		}
	}

	var ns, allocs float64
	tr.timed("service.same_component", func() {
		ns, allocs = allocsPer(singles, func(i int) {
			p := ps[i&mask]
			got, err := svc.SameComponent(spec, p[0], p[1])
			if err != nil {
				wrong++
			}
			check(p, got)
		})
	})
	b.set("service.same_component_ns", ns, "ns")
	b.set("service.same_component_allocs", allocs, "allocs")

	h := service.NewHandler(svc)
	reqs := make([]*http.Request, 256)
	for i := range reqs {
		p := ps[i]
		reqs[i] = httptest.NewRequest("GET", "/v1/query/same-component?graph="+id+
			"&u="+strconv.Itoa(int(p[0]))+"&v="+strconv.Itoa(int(p[1])), nil)
	}
	w := &discardWriter{h: make(http.Header)}
	const httpSingles = 1 << 17
	tr.timed("http.same_component", func() {
		ns, allocs = allocsPer(httpSingles, func(i int) {
			w.reset()
			h.ServeHTTP(w, reqs[i&255])
			same := bytes.Contains(w.body, []byte(`"same":true`))
			if w.status != http.StatusOK {
				wrong++
			}
			check(ps[i&255], same)
		})
	})
	b.set("http.same_component_ns", ns, "ns")
	b.set("http.same_component_allocs", allocs, "allocs")

	qs := make([]service.BatchQuery, queryBatch)
	out := make([]service.BatchResult, queryBatch)
	for i := range qs {
		qs[i] = service.BatchQuery{Op: service.OpSameComponent, U: ps[i][0], V: ps[i][1]}
	}
	const batches = 1 << 14
	tr.timed("service.query_batch", func() {
		ns, _ = allocsPer(batches, func(int) {
			if _, err := svc.Query(spec, qs, out); err != nil {
				wrong++
			}
		})
	})
	for i := range qs {
		check(ps[i], out[i].Same)
	}
	b.set("service.query_batch_ns_per_query", ns/queryBatch, "ns")

	body := []byte(`{"graph":"` + id + `","queries":[`)
	for i, q := range qs {
		if i > 0 {
			body = append(body, ',')
		}
		body = fmt.Appendf(body, `{"op":"same-component","u":%d,"v":%d}`, q.U, q.V)
	}
	body = append(body, "]}"...)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", "/v1/query/batch", nil)
	req.Body = rewindBody{rd}
	tr.timed("http.query_batch", func() {
		ns, _ = allocsPer(batches/4, func(int) {
			w.reset()
			rd.Reset(body)
			h.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				wrong++
			}
		})
	})
	b.set("http.query_batch_ns_per_query", ns/queryBatch, "ns")

	c1 := svc.Counters()
	hits, misses := c1.CacheHits-c0.CacheHits, c1.CacheMisses-c0.CacheMisses
	b.set("service.cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	b.set("service.admission_rejected", float64(c1.AdmissionRejected-c0.AdmissionRejected), "count")
	b.attempted.Add(singles + httpSingles + batches + batches/4)
	if wrong > 0 {
		b.failed.Add(int64(wrong))
		b.problem("query replay: %d wrong or failed answers", wrong)
	}
	return nil
}

// replayAppends fills a churn graph's retained window through
// Service.Append, then keeps appending past it, and reports the write
// path's costs for both phases; compaction happens in the second.
func (b *bench) replayAppends(tr *tracer) error {
	defer tr.begin("replay.appends")()
	base, err := gndDataset("churn", b.seed, streamChurnBase, churnN, churnD)
	if err != nil {
		return err
	}
	fs := newCountingFS(tr)
	svc, err := b.openService(fs)
	if err != nil {
		return err
	}
	defer svc.Close()
	sg, err := svc.Load(base.name, bytes.NewReader(base.text))
	if err != nil {
		return err
	}
	spec := service.SolveSpec{GraphID: sg.ID, Version: -1, Algo: "parallel"}
	if _, err := svc.Solve(spec); !b.op(err) {
		return nil
	}
	next := batchStream(b.seed, churnN)
	labels, count := slices.Clone(base.labels), base.count
	rng := rngFor(b.seed, streamQueries+3)

	type phase struct {
		appends   int
		userBytes int
		io        ioCounts
		counters  service.Counters
		appendDur samples
		mergeDur  samples
		syncDur   samples
		compacts  samples
	}
	run := func(name string, appends int, until time.Time) phase {
		defer tr.begin("replay.appends." + name)()
		var p phase
		io0, c0 := fs.counts(), svc.Counters()
		for i := 0; i < appends || (appends == 0 && (p.appends < 10 || time.Now().Before(until))); i++ {
			batch := next()
			p.userBytes += len(appendEdges(nil, batch))
			var info service.VersionInfo
			d := tr.timed("service.append", func() { info, err = svc.Append(sg.ID, batch, false) })
			p.appendDur = append(p.appendDur, d)
			p.appends++
			var merged []graph.Vertex
			p.mergeDur = append(p.mergeDur, tr.timed("dynamic.merge_labels", func() {
				merged, count, _ = dynamic.MergeLabels(labels, count, batch, churnN)
			}))
			labels = merged
			if err == nil && info.Components != count {
				err = fmt.Errorf("append: %d components, reference %d", info.Components, count)
			}
			if !b.op(err) {
				break
			}
			for k := 0; k < 4; k++ {
				u, v := graph.Vertex(rng.IntN(churnN)), graph.Vertex(rng.IntN(churnN))
				got, err := svc.SameComponent(spec, u, v)
				if err == nil && got != (labels[u] == labels[v]) {
					err = fmt.Errorf("churn replay: same-component(%d,%d) = %v", u, v, got)
				}
				b.op(err)
			}
		}
		// Let the compaction the last append queued finish before
		// counting: appends wait for it anyway, so it belongs here.
		settle(fs)
		p.io = fs.counts().minus(io0)
		p.syncDur = fs.syncsSince(io0)
		p.compacts = fs.compactionsSince(io0)
		c1 := svc.Counters()
		p.counters = service.Counters{
			IncrementalMerges: c1.IncrementalMerges - c0.IncrementalMerges,
			CacheMisses:       c1.CacheMisses - c0.CacheMisses,
		}
		return p
	}
	fill := run("fill", windowFill, time.Time{})
	steady := run("steady", 0, time.Now().Add(3*time.Second))

	per := func(x int, p phase) float64 { return float64(x) / float64(p.appends) }
	b.set("service.append_ms_p50", steady.appendDur.median(), "ms")
	b.set("store.sync_ms_p50", steady.syncDur.median(), "ms")
	b.set("store.fsyncs_per_append", per(steady.io.syncs, steady), "count")
	b.set("store.bytes_per_user_byte.fill", float64(fill.io.bytes)/float64(fill.userBytes), "ratio")
	b.set("store.bytes_per_user_byte.steady", float64(steady.io.bytes)/float64(steady.userBytes), "ratio")
	b.set("store.compactions_per_append.fill", per(fill.io.snapRenames, fill), "count")
	b.set("store.compactions_per_append.steady", per(steady.io.snapRenames, steady), "count")
	b.set("store.compaction_ms_p50", steady.compacts.median(), "ms")
	b.set("dynamic.merge_labels_ms", steady.mergeDur.median(), "ms")
	b.set("service.incremental_merges_per_append", per(int(steady.counters.IncrementalMerges), steady), "count")
	b.set("service.churn_cache_misses", float64(steady.counters.CacheMisses), "count")
	b.notef("append replay: fill %d appends p50 %.3f ms, steady %d appends p50 %.3f ms",
		fill.appends, fill.appendDur.median(), steady.appends, steady.appendDur.median())
	return nil
}

// settle waits until the store has been quiet for 200ms (at most 10s),
// so a background compaction still running is counted.
func settle(fs *countingFS) {
	last, quiet := fs.counts(), time.Now()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		if c := fs.counts(); c != last {
			last, quiet = c, time.Now()
		} else if time.Since(quiet) > 200*time.Millisecond {
			return
		}
	}
}

// replayMPC runs the paper's pipeline and the hashtomin baseline on the
// paper-mpc expander and reports the simulator's exact counts, which
// must repeat across runs of one seed.
func (b *bench) replayMPC(tr *tracer) error {
	defer tr.begin("replay.mpc")()
	ex, err := expanderDataset(b.seed, mpcN, mpcD)
	if err != nil {
		return err
	}
	var res *algo.Result
	d := tr.timed("algo.find.wcc", func() { res, err = algo.Find("wcc", ex.g, algo.Options{Lambda: mpcLambda}) })
	if !b.op(err) {
		return nil
	}
	if !slices.Equal(algo.CanonicalForm(res.Labels), algo.CanonicalForm(ex.labels)) {
		b.op(fmt.Errorf("paper-mpc: wcc labels differ from graph.Components"))
	}
	b.set("algo.find_s.wcc", d.Seconds(), "s")
	var base *algo.Result
	d = tr.timed("algo.find.hashtomin", func() { base, err = algo.Find("hashtomin", ex.g, algo.Options{}) })
	if err == nil && !slices.Equal(algo.CanonicalForm(base.Labels), algo.CanonicalForm(ex.labels)) {
		err = fmt.Errorf("paper-mpc: hashtomin labels differ from graph.Components")
	}
	b.op(err)
	b.set("algo.find_s.hashtomin", d.Seconds(), "s")

	st := res.Core
	counts := map[string]int64{
		"mpc_rounds":             int64(res.Rounds),
		"core.rounds.regularize": int64(st.Steps.Regularize),
		"core.rounds.randomize":  int64(st.Steps.Randomize),
		"core.rounds.grow":       int64(st.Steps.Grow),
		"core.rounds.finish":     int64(st.Steps.Finish),
		"mpc.total_messages":     st.TotalMessages,
		"mpc.max_machine_load":   int64(st.MaxMachineLoad),
	}
	for name, v := range counts {
		if name == "mpc_rounds" {
			name = "mpc.rounds"
		}
		b.set(name, float64(v), "count")
	}
	b.checkCounts(counts)
	return nil
}

// sameLabels checks a layer's labeling against the reference partition.
func sameLabels(ds *dataset, who string, labels []graph.Vertex) error {
	if !graph.SameLabeling(labels, ds.labels) {
		return fmt.Errorf("%s: %s partition differs from the reference", ds.name, who)
	}
	return nil
}

func countIs(ds *dataset, who string, got int) error {
	if got != ds.count {
		return fmt.Errorf("%s: %s found %d components, reference %d", ds.name, who, got, ds.count)
	}
	return nil
}
