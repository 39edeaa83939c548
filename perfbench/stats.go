package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/graph"
)

// samples is a set of durations.
type samples []time.Duration

// pct is the nearest-rank p-th percentile (0 < p <= 100) in ms.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return ms(sorted[rank-1])
}

// median is the midpoint median in ms (the mean of the middle two for an
// even count), steadier than a nearest rank on few samples.
func (s samples) median() float64 { return medianOf(s.ms()) }

// timeline is a phase's record: each operation's latency and the time
// it ended, counted from the start of the phase.
type timeline struct {
	start time.Time
	lat   samples
	at    []time.Duration
	wall  time.Duration
}

// record adds one operation that ran from t0 to t1.
func (t *timeline) record(t0, t1 time.Time) {
	t.lat = append(t.lat, t1.Sub(t0))
	t.at = append(t.at, t1.Sub(t.start))
}

// windows splits the timeline into consecutive windows of length w and
// returns the p-th percentile of the latencies that ended in each, in
// ms. A trailing window shorter than w/2 is left out.
func (t timeline) windows(w time.Duration, p float64) []float64 {
	buckets := make([]samples, int(t.wall/w)+1)
	for i, d := range t.lat {
		k := min(int(t.at[i]/w), len(buckets)-1)
		buckets[k] = append(buckets[k], d)
	}
	if rest := t.wall % w; rest < w/2 && len(buckets) > 1 {
		buckets = buckets[:len(buckets)-1]
	}
	var stats []float64
	for _, bk := range buckets {
		if len(bk) > 0 {
			stats = append(stats, bk.pct(p))
		}
	}
	return stats
}

// ms is every duration in ms.
func (s samples) ms() []float64 {
	xs := make([]float64, len(s))
	for i, d := range s {
		xs[i] = ms(d)
	}
	return xs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianOf is the midpoint median of plain numbers.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// versionedUF is the append-churn reference: a union-find without path
// compression whose links carry the version that created them, so it
// answers "were u and v connected at version t" for every version seen
// so far. A reader racing the writer checks its answer against the
// versions the server could have served.
type versionedUF struct {
	parent []graph.Vertex
	rank   []uint8
	at     []int // version of the link to parent; unused at roots
	sets   int   // components at the latest applied version
}

func newVersionedUF(labels []graph.Vertex) *versionedUF {
	n := len(labels)
	uf := &versionedUF{parent: make([]graph.Vertex, n), rank: make([]uint8, n), at: make([]int, n)}
	for v := range uf.parent {
		uf.parent[v] = graph.Vertex(v)
	}
	// Version 0: every vertex linked straight to its base component's
	// first vertex.
	first := map[graph.Vertex]graph.Vertex{}
	defer func() { uf.sets = len(first) }()
	for v, l := range labels {
		if r, ok := first[l]; ok {
			uf.parent[v] = r
			uf.rank[r] = 1
		} else {
			first[l] = graph.Vertex(v)
		}
	}
	return uf
}

func (uf *versionedUF) root(v graph.Vertex) graph.Vertex {
	for uf.parent[v] != v {
		v = uf.parent[v]
	}
	return v
}

// apply merges one batch as version t.
func (uf *versionedUF) apply(batch []graph.Edge, t int) {
	for _, e := range batch {
		a, b := uf.root(e.U), uf.root(e.V)
		if a == b {
			continue
		}
		if uf.rank[a] < uf.rank[b] {
			a, b = b, a
		}
		uf.parent[b], uf.at[b] = a, t
		uf.sets--
		if uf.rank[a] == uf.rank[b] {
			uf.rank[a]++
		}
	}
}

// connectedAt reports whether u and v were connected at version t: the
// largest link version on the path between them is at most t.
func (uf *versionedUF) connectedAt(u, v graph.Vertex, t int) bool {
	// Walk both up in lock-step by rank (depth is O(log n)).
	latest := 0
	for u != v {
		if uf.rank[u] > uf.rank[v] || (uf.rank[u] == uf.rank[v] && u > v) {
			u, v = v, u
		}
		if uf.parent[u] == u {
			return false // u is a root and differs from v
		}
		latest = max(latest, uf.at[u])
		u = uf.parent[u]
	}
	return latest <= t
}
