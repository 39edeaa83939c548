package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// The end-to-end metrics every workload reports. Each workload has a
// headline operation (op) and a second operation (op2); README.md maps
// them to the figures the report prints by name.
const (
	mSetup   = "setup_s"
	mOp      = "op_p50_ms"
	mOp2     = "op2_p50_ms"
	mRestart = "restart_s"
	mRSS     = "rss_peak_mb"
)

const (
	gndN, gndD     = 1 << 20, 8
	gridSide       = 1024
	churnN, churnD = 1 << 18, 8
	batchEdges     = 64
	windowFill     = 64 // appends that fill the 65-version retained window
	mpcN, mpcD     = 512, 8
	mpcLambda      = 0.3
	stormClients   = 1   // closed-loop clients: one leaves a core to the server
	stormBatches   = 256 // distinct batch bodies the storm cycles through
	stormRounds    = 7   // restarts spread over the timed phase
	stormWindow    = time.Second / 2
	churnRounds    = 8 // restarts spread over the append-churn timed phase
	readWindow     = time.Second / 2
	queryBatch     = 64
)

// repeatSetup runs the program's set-up at least n times and until
// half a second has passed (a traced run: once), records the median
// duration as setup_s and returns the last server (the earlier ones are
// stopped). Cheap set-ups thus get many samples and a steady median.
func (b *bench) repeatSetup(n int, setup func() (*server, error)) (*server, error) {
	var durs samples
	var s *server
	start := time.Now()
	for i := 0; i == 0 || !b.tracing && (i < n || time.Since(start) < time.Second/2); i++ {
		if s != nil {
			b.stop(s)
		}
		t0 := time.Now()
		var err error
		if s, err = setup(); err != nil {
			return nil, err
		}
		durs = append(durs, time.Since(t0))
	}
	b.set(mSetup, durs.median()/1000, "s")
	b.figure("setup_s", durs.median()/1000, "s", len(durs))
	return s, nil
}

// timedLoop repeats one step until the timed phase is over: a new step
// starts only when the mean step so far still fits before the deadline,
// and at least one step always runs. It returns the phase's wall time.
func (b *bench) timedLoop(step func() error) (time.Duration, error) {
	start := time.Now()
	deadline := start.Add(b.seconds)
	for n := 0; ; n++ {
		if n > 0 {
			mean := time.Since(start) / time.Duration(n)
			if time.Now().Add(mean).After(deadline) {
				return time.Since(start), nil
			}
		}
		if err := step(); err != nil {
			return 0, err
		}
	}
}

// checkSame compares one served same-component answer with the
// reference labeling and tallies it.
func (b *bench) checkSame(ds *dataset, u, v graph.Vertex, got bool, err error) bool {
	if err == nil && got != (ds.labels[u] == ds.labels[v]) {
		err = fmt.Errorf("%s: same-component(%d,%d) = %v, reference says %v", ds.name, u, v, got, !got)
	}
	return b.op(err)
}

// answer solves one graph (a cache miss on a cold or restarted server)
// and asks one checked query: the first answer a client gets.
func (b *bench) answer(s *server, id string, ds *dataset, algo string, lambda float64, rng *rand.Rand) (solveReply, bool) {
	t0 := time.Now()
	defer b.span("client.answer", t0)
	reply, err := s.solve(id, algo, lambda)
	if err == nil && reply.Components != ds.count {
		err = fmt.Errorf("%s: solve found %d components, reference %d", ds.name, reply.Components, ds.count)
	}
	if !b.op(err) {
		return reply, false
	}
	u, v := graph.Vertex(rng.IntN(ds.n)), graph.Vertex(rng.IntN(ds.n))
	got, err := s.same(queryPath(id, algo, lambda), u, v)
	return reply, b.checkSame(ds, u, v, got, err)
}

// coldToAnswer POSTs an edge list to a running server, solves it and
// asks one query: the time from a cold file to the first answer.
func (b *bench) coldToAnswer(s *server, ds *dataset, rng *rand.Rand) (string, time.Duration, bool) {
	t0 := time.Now()
	id, err := s.load(ds.name, ds.text)
	if !b.op(err) {
		return "", 0, false
	}
	_, ok := b.answer(s, id, ds, "", 0, rng)
	b.span("client.cold_to_answer", t0)
	return id, time.Since(t0), ok
}

// report sets the end-to-end metrics every workload shares. op and op2
// are the workload's measurements of its two operations in ms: medians
// of short windows for fast operations, single operations for slow
// ones. Each metric is the median of its measurements, and restart_s
// that of the restarts. The op's p90 and throughput are printed as
// figures: on a few shared cores the host's load moves means and high
// percentiles past any useful bound between runs while medians hold.
func (b *bench) report(op, op2 []float64, restart samples, wall time.Duration) {
	b.set(mOp, medianOf(op), "ms")
	b.set(mOp2, medianOf(op2), "ms")
	b.set(mRestart, restart.median()/1000, "s")
	b.stopAll()
	rss, servers := b.peakRSS()
	b.set(mRSS, rss, "MB")
	b.notef("measurements op=%d op2=%d restart=%d rss=%d timed=%.3fs", len(op), len(op2), len(restart), servers, wall.Seconds())
}

// restart stops s and starts it again on its data directory, then
// times process start to the first answer. It returns the new server,
// which serves the timed phase like the old one did.
func (b *bench) restart(s *server, answer func(*server) bool) (*server, time.Duration, bool, error) {
	b.stop(s)
	t0 := time.Now()
	next, err := b.startServer(s.dataDir)
	if err != nil {
		return nil, 0, false, err
	}
	ok := answer(next)
	return next, time.Since(t0), ok, nil
}

// closedLoop runs clients goroutines for d, each sending its next
// request only after the previous one completed (and at least one), and
// returns every request's latency and end time.
func (b *bench) closedLoop(clients int, d time.Duration, stream uint64, step func(client int, rng *rand.Rand) error) timeline {
	lines := make([]timeline, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range lines {
		lines[c].start = start
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(b.seed, stream<<8|uint64(c)))
			tl := &lines[c]
			for n := 0; ; n++ {
				t0 := time.Now()
				if n > 0 && !t0.Before(deadline) {
					return
				}
				err := step(c, rng)
				tl.record(t0, time.Now())
				b.span("client.op", t0)
				if !b.op(err) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	all := timeline{start: start, wall: time.Since(start)}
	for _, l := range lines {
		all.lat = append(all.lat, l.lat...)
		all.at = append(all.at, l.at...)
	}
	return all
}

// dialAll opens one raw connection per client.
func dialAll(s *server, clients int) ([]*rawConn, error) {
	conns := make([]*rawConn, clients)
	for i := range conns {
		c, err := dialRaw(s.base)
		if err != nil {
			closeAll(conns)
			return nil, err
		}
		conns[i] = c
	}
	return conns, nil
}

func closeAll(conns []*rawConn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}

// queryStorm: set-up POSTs the text edge lists of a G(n,d) graph of
// 2^20 vertices and of a grid to a fresh data directory, solves both and
// asks one query on each (the cold start). Then rounds of a restart
// that answers on both graphs (restart_s), one closed-loop client
// sending single same-component GETs on uniform gnd pairs (op) and
// 64-query batch POSTs (op2). Between restarts only the cache-hit path
// and the HTTP layer run.
func queryStorm(b *bench) error {
	gnd, err := b.gnd()
	if err != nil {
		return err
	}
	grid := b.grid()
	rng := rngFor(b.seed, streamQueries)
	var id, gridID string
	var cold, coldGrid samples
	s, err := b.repeatSetup(3, func() (*server, error) {
		s, err := b.startServer(b.freshDir())
		if err != nil {
			return nil, err
		}
		var d, dg time.Duration
		if id, d, _ = b.coldToAnswer(s, gnd, rng); id == "" {
			return nil, fmt.Errorf("query-storm set-up: gnd load failed")
		}
		if gridID, dg, _ = b.coldToAnswer(s, grid, rng); gridID == "" {
			return nil, fmt.Errorf("query-storm set-up: grid load failed")
		}
		cold, coldGrid = append(cold, d), append(coldGrid, dg)
		s.peak = true
		return s, nil
	})
	if err != nil {
		return err
	}
	b.figure("cold_to_answer_s", cold.median()/1000, "s", len(cold))
	b.figure("cold_to_answer_grid_s", coldGrid.median()/1000, "s", len(coldGrid))
	// The batch bodies are encoded before the timed phase, so the load
	// generator spends its time waiting on the server, not on JSON.
	batchPairs := make([][][2]graph.Vertex, stormBatches)
	batchBodies := make([][]byte, stormBatches)
	for i := range batchPairs {
		batchPairs[i] = pairs(rng, gnd.n, queryBatch)
		if batchBodies[i], err = batchBody(id, "", 0, batchPairs[i]); err != nil {
			return err
		}
	}

	// Each round: a restart, then single queries for 60% of what is
	// left of the round and batches for the rest.
	path := queryPath(id, "", 0)
	var singleWins, batchWins []float64
	var single, batch samples
	var singleWall, batchWall time.Duration
	var restart samples
	start := time.Now()
	for r := 1; r <= stormRounds; r++ {
		next, d, ok, err := b.restart(s, func(s *server) bool {
			_, ok1 := b.answer(s, id, gnd, "", 0, rng)
			_, ok2 := b.answer(s, gridID, grid, "", 0, rng)
			return ok1 && ok2
		})
		if err != nil {
			return err
		}
		s = next
		if ok {
			restart = append(restart, d)
		}
		left := time.Until(start.Add(b.seconds * time.Duration(r) / stormRounds))
		conns, err := dialAll(s, stormClients)
		if err != nil {
			return err
		}
		tl := b.closedLoop(stormClients, left*6/10, streamQueries+uint64(2*r), func(c int, rng *rand.Rand) error {
			u, v := graph.Vertex(rng.IntN(gnd.n)), graph.Vertex(rng.IntN(gnd.n))
			got, err := conns[c].same(path, u, v)
			if err == nil && got != (gnd.labels[u] == gnd.labels[v]) {
				err = fmt.Errorf("gnd: same-component(%d,%d) = %v, reference says %v", u, v, got, !got)
			}
			return err
		})
		singleWins = append(singleWins, tl.windows(stormWindow, 50)...)
		single, singleWall = append(single, tl.lat...), singleWall+tl.wall
		tl = b.closedLoop(stormClients, left*4/10, streamQueries+uint64(2*r+1), func(c int, rng *rand.Rand) error {
			i := rng.IntN(stormBatches)
			reply, err := conns[c].post("/v1/query/batch", batchBodies[i])
			if err != nil {
				return err
			}
			return checkBatch(reply, gnd, batchPairs[i])
		})
		closeAll(conns)
		batchWins = append(batchWins, tl.windows(stormWindow, 50)...)
		batch, batchWall = append(batch, tl.lat...), batchWall+tl.wall
	}
	wall := time.Since(start)

	b.figure("query_qps", float64(len(single))/singleWall.Seconds(), "1/s", len(single))
	b.figure("query_p50_us", single.median()*1000, "us", len(single))
	b.figure("query_p99_us", single.pct(99)*1000, "us", len(single))
	b.figure("batch_query_qps", float64(len(batch)*queryBatch)/batchWall.Seconds(), "1/s", len(batch))
	b.figure("restart_to_answer_s", restart.median()/1000, "s", len(restart))
	b.figure("op_p90_ms", single.pct(90), "ms", len(single))
	b.report(singleWins, batchWins, restart, wall)
	return nil
}

// batchBody encodes one batch of same-component queries.
func batchBody(id, algo string, lambda float64, ps [][2]graph.Vertex) ([]byte, error) {
	type q struct {
		Op string       `json:"op"`
		U  graph.Vertex `json:"u"`
		V  graph.Vertex `json:"v"`
	}
	req := struct {
		Graph   string  `json:"graph"`
		Algo    string  `json:"algo,omitempty"`
		Lambda  float64 `json:"lambda,omitempty"`
		Queries []q     `json:"queries"`
	}{Graph: id, Algo: algo, Lambda: lambda}
	for _, p := range ps {
		req.Queries = append(req.Queries, q{Op: "same-component", U: p[0], V: p[1]})
	}
	return json.Marshal(req)
}

// checkBatch compares a batch reply's results, in order, with the
// reference answers for ps.
func checkBatch(reply []byte, ds *dataset, ps [][2]graph.Vertex) error {
	const key = `{"same":`
	rest := reply
	for i, p := range ps {
		k := bytes.Index(rest, []byte(key))
		if k < 0 {
			return fmt.Errorf("batch: %d results for %d queries: %.200s", i, len(ps), reply)
		}
		rest = rest[k+len(key):]
		got := bytes.HasPrefix(rest, []byte("true"))
		if !got && !bytes.HasPrefix(rest, []byte("false")) {
			return fmt.Errorf("batch: unexpected result %.40s", rest)
		}
		if want := ds.labels[p[0]] == ds.labels[p[1]]; got != want {
			return fmt.Errorf("%s: batch same-component(%d,%d) = %v, reference says %v", ds.name, p[0], p[1], got, want)
		}
	}
	if bytes.Contains(rest, []byte(key)) || bytes.Contains(reply, []byte(`"error"`)) {
		return fmt.Errorf("batch: more results than %d queries, or an error: %.200s", len(ps), reply)
	}
	return nil
}

// batchQuery POSTs one batch of same-component queries and checks
// every result against the reference.
func (b *bench) batchQuery(url, id, algo string, lambda float64, ds *dataset, ps [][2]graph.Vertex) error {
	body, err := batchBody(id, algo, lambda, ps)
	if err != nil {
		return err
	}
	var raw json.RawMessage
	if err := do("POST", url, body, &raw); err != nil {
		return err
	}
	return checkBatch(raw, ds, ps)
}

// churnState is the append-churn reference shared by the writer and the
// reader: the union-find advanced with every acknowledged batch and the
// versions acknowledged and sent so far.
type churnState struct {
	mu    sync.RWMutex
	uf    *versionedUF
	acked atomic.Int64 // latest version the writer saw acknowledged
	sent  atomic.Int64 // latest version the writer has sent
	next  func() []graph.Edge
}

// appendOne sends the next batch, checks the reply against the
// reference and advances it; it returns the append's latency.
func (b *bench) appendOne(s *server, id string, st *churnState) (time.Duration, error) {
	batch := st.next()
	version := int(st.sent.Add(1))
	body := appendEdges(nil, batch)
	t0 := time.Now()
	var out struct {
		Version    int `json:"version"`
		Components int `json:"components"`
	}
	err := do("POST", s.base+"/v1/graphs/"+id+"/edges", body, &out)
	d := time.Since(t0)
	b.span("client.append", t0)
	if err != nil {
		return d, err
	}
	st.mu.Lock()
	st.uf.apply(batch, version)
	want := st.uf.sets
	st.mu.Unlock()
	st.acked.Store(int64(version))
	if out.Version != version || out.Components != want {
		return d, fmt.Errorf("append: reply version %d components %d, reference version %d components %d", out.Version, out.Components, version, want)
	}
	return d, nil
}

// appendChurn: a solved G(n,d) graph of 2^18 vertices whose 65-version
// retained window is filled during set-up; then one writer appending
// 64-edge batches (op) and one reader asking latest-version queries
// (op2) run together, so every append pays the steady-state compaction.
func appendChurn(b *bench) error {
	base, err := gndDataset("churn", b.seed, streamChurnBase, churnN, churnD)
	if err != nil {
		return err
	}
	rng := rngFor(b.seed, streamQueries)
	var id string
	var st *churnState
	var fill samples
	// Five set-ups: their servers' peak memory is rss_peak_mb, and one
	// in three or so peaks 5% lower, depending on when the collector runs.
	s, err := b.repeatSetup(5, func() (*server, error) {
		s, err := b.startServer(b.freshDir())
		if err != nil {
			return nil, err
		}
		if id, _, _ = b.coldToAnswer(s, base, rng); id == "" {
			return nil, fmt.Errorf("append-churn set-up: load failed")
		}
		st = &churnState{uf: newVersionedUF(base.labels), next: batchStream(b.seed, churnN)}
		fill = fill[:0]
		for i := 0; i < windowFill; i++ {
			d, err := b.appendOne(s, id, st)
			if !b.op(err) {
				return nil, fmt.Errorf("append-churn set-up: window fill failed")
			}
			fill = append(fill, d)
		}
		s.peak = true
		return s, nil
	})
	if err != nil {
		return err
	}
	b.figure("fill_append_p50_ms", fill.median(), "ms", len(fill))

	// Each round: a restart (the server replays the store and re-solves
	// the latest version), then the writer and the reader together for
	// the rest of the round.
	path := queryPath(id, "", 0)
	var writes, reads, restart samples
	var writeWins, readWins []float64
	var busy time.Duration
	start := time.Now()
	for r := 1; r <= churnRounds; r++ {
		final := int(st.acked.Load())
		next, d, ok, err := b.restart(s, func(s *server) bool {
			if _, err := s.solve(id, "", 0); !b.op(err) {
				return false
			}
			u, v := graph.Vertex(rng.IntN(churnN)), graph.Vertex(rng.IntN(churnN))
			got, err := s.same(path, u, v)
			if err == nil && got != st.uf.connectedAt(u, v, final) {
				err = fmt.Errorf("churn after restart: same-component(%d,%d) = %v", u, v, got)
			}
			return b.op(err)
		})
		if err != nil {
			return err
		}
		s = next
		if ok {
			restart = append(restart, d)
		}
		w, rd, err := b.churn(s, id, st, r, start.Add(b.seconds*time.Duration(r)/churnRounds))
		if err != nil {
			return err
		}
		writes, reads, busy = append(writes, w.lat...), append(reads, rd.lat...), busy+w.wall
		writeWins = append(writeWins, w.lat.median())
		readWins = append(readWins, rd.windows(readWindow, 50)...)
	}
	wall := time.Since(start)
	b.figure("append_bps", float64(len(writes))/busy.Seconds(), "1/s", len(writes))
	b.figure("append_p50_ms", writes.median(), "ms", len(writes))
	b.figure("append_p90_ms", writes.pct(90), "ms", len(writes))
	b.figure("churn_query_p50_us", reads.median()*1000, "us", len(reads))
	b.figure("restart_to_answer_s", restart.median()/1000, "s", len(restart))
	b.report(writeWins, readWins, restart, wall)
	return nil
}

// churn runs the append-churn writer and reader against s until
// deadline and returns their timelines.
func (b *bench) churn(s *server, id string, st *churnState, round int, deadline time.Time) (writes, reads timeline, err error) {
	reader, err := dialRaw(s.base)
	if err != nil {
		return writes, reads, err
	}
	defer reader.Close()
	path := queryPath(id, "", 0)
	start := time.Now()
	writes.start, reads.start = start, start
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			t0 := time.Now()
			_, err := b.appendOne(s, id, st)
			if !b.op(err) {
				return
			}
			writes.record(t0, time.Now())
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewPCG(b.seed, streamQueries<<8|uint64(round)))
		for time.Now().Before(deadline) {
			u, v := graph.Vertex(rng.IntN(churnN)), graph.Vertex(rng.IntN(churnN))
			lo := int(st.acked.Load())
			t0 := time.Now()
			got, err := reader.same(path, u, v)
			reads.record(t0, time.Now())
			hi := int(st.sent.Load())
			if err == nil {
				// The server may answer from any version between the
				// last acknowledged and the last sent batch.
				st.mu.RLock()
				mustSame, maySame := st.uf.connectedAt(u, v, lo), st.uf.connectedAt(u, v, hi)
				st.mu.RUnlock()
				if (mustSame && !got) || (!maySame && got) {
					err = fmt.Errorf("churn: same-component(%d,%d) = %v outside versions %d..%d", u, v, got, lo, hi)
				}
			}
			if !b.op(err) {
				return
			}
		}
	}()
	wg.Wait()
	wall := time.Since(start)
	writes.wall, reads.wall = wall, wall
	return writes, reads, nil
}

// batchStream yields the append-churn batches in seed order, however
// many a run consumes.
func batchStream(seed uint64, n int) func() []graph.Edge {
	rng := rngFor(seed, streamBatches)
	return func() []graph.Edge {
		batch := make([]graph.Edge, batchEdges)
		for i := range batch {
			batch[i] = graph.Edge{U: graph.Vertex(rng.IntN(n)), V: graph.Vertex(rng.IntN(n))}
		}
		return batch
	}
}

// paperMPC: the paper's pipeline ("wcc", λ=0.3) on a 512-vertex d=8
// expander, each solve on a fresh server so it is a cache miss (op);
// the hashtomin baseline on the same graph is op2. The rounds the
// server reports must repeat exactly.
func paperMPC(b *bench) error {
	ex, err := expanderDataset(b.seed, mpcN, mpcD)
	if err != nil {
		return err
	}
	rng := rngFor(b.seed, streamQueries)
	load := func() (*server, string, error) {
		s, err := b.startServer(b.freshDir())
		if err != nil {
			return nil, "", err
		}
		id, err := s.load(ex.name, ex.text)
		if !b.op(err) {
			return nil, "", fmt.Errorf("paper-mpc: load failed")
		}
		return s, id, nil
	}
	s, err := b.repeatSetup(3, func() (*server, error) {
		s, _, err := load()
		return s, err
	})
	if err != nil {
		return err
	}
	b.stop(s)

	// Each step: one wcc solve on a fresh server, restarts of that
	// server, then the baseline on several fresh servers (it takes
	// milliseconds, so one sample per step would leave its median to
	// chance). A restarted server answers with its default solver; the
	// paper pipeline's own re-solve is the op.
	const baselinesPerStep, restartsPerStep = 6, 8
	var solves, baseline, restart samples
	rounds := -1
	wall, err := b.timedLoop(func() error {
		s, id, err := load()
		if err != nil {
			return err
		}
		s.peak = true
		t0 := time.Now()
		reply, ok := b.answer(s, id, ex, "wcc", mpcLambda, rng)
		if ok {
			solves = append(solves, time.Since(t0))
			if rounds >= 0 && reply.Rounds != rounds {
				b.problem("paper-mpc: rounds drifted within one run: %d then %d", rounds, reply.Rounds)
			}
			rounds = reply.Rounds
			b.op(b.checkPartition(s, id, "wcc", mpcLambda, ex))
		}
		for i := 0; i < restartsPerStep; i++ {
			var d time.Duration
			if s, d, ok, err = b.restart(s, func(s *server) bool {
				_, ok := b.answer(s, id, ex, "", 0, rng)
				return ok
			}); err != nil {
				return err
			}
			if ok {
				restart = append(restart, d)
			}
		}
		b.stop(s)
		for i := 0; i < baselinesPerStep; i++ {
			s, id, err := load()
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, ok := b.answer(s, id, ex, "hashtomin", 0, rng); ok {
				baseline = append(baseline, time.Since(t0))
			}
			b.stop(s)
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.figure("mpc_solve_s", solves.median()/1000, "s", len(solves))
	b.figure("mpc_rounds", float64(rounds), "rounds", len(solves))
	b.figure("hashtomin_solve_s", baseline.median()/1000, "s", len(baseline))
	b.figure("restart_to_answer_s", restart.median()/1000, "s", len(restart))
	b.figure("op_p90_ms", solves.pct(90), "ms", len(solves))
	b.checkCounts(map[string]int64{"mpc_rounds": int64(rounds)})
	b.report(solves.ms(), baseline.ms(), restart, wall)
	return nil
}

// checkPartition asks, for every vertex, whether it shares a component
// with its reference component's first vertex, and compares the
// component count: together these prove the served partition equals
// the reference one.
func (b *bench) checkPartition(s *server, id, algo string, lambda float64, ds *dataset) error {
	first := map[graph.Vertex]graph.Vertex{}
	var ps [][2]graph.Vertex
	for v, l := range ds.labels {
		r, ok := first[l]
		if !ok {
			first[l] = graph.Vertex(v)
			r = graph.Vertex(v)
		}
		ps = append(ps, [2]graph.Vertex{graph.Vertex(v), r})
	}
	return b.batchQuery(s.base+"/v1/query/batch", id, algo, lambda, ds, ps)
}

// gnd and grid build the query-storm inputs once per run.
func (b *bench) gnd() (*dataset, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.gndData == nil {
		ds, err := gndDataset("gnd", b.seed, streamGND, gndN, gndD)
		if err != nil {
			return nil, err
		}
		b.gndData = ds
	}
	return b.gndData, nil
}

func (b *bench) grid() *dataset {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.gridData == nil {
		b.gridData = gridDataset(b.seed, gridSide, gridSide)
	}
	return b.gridData
}
