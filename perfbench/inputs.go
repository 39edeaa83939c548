package main

import (
	"math/rand/v2"
	"strconv"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Every input derives from the run's --seed through its own PCG stream,
// so the same seed gives byte-identical inputs and inputs of different
// kinds never share random numbers.
const (
	streamGND = iota + 1
	streamGrid
	streamQueries
	streamChurnBase
	streamBatches
	streamExpander
)

func rngFor(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// dataset is one generated graph as the server receives it (the text
// edge list) and as the benchmark checks it (the reference labeling).
type dataset struct {
	name   string
	n, m   int
	text   []byte
	labels []graph.Vertex // graph.Components of the generated graph
	count  int
	g      *graph.Graph
}

// newDataset encodes g as a shuffled text edge list and computes the
// reference components.
func newDataset(name string, g *graph.Graph, rng *rand.Rand) *dataset {
	edges := make([]graph.Edge, 0, g.M())
	g.ForEachEdge(func(e graph.Edge) { edges = append(edges, e) })
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	labels, count := graph.Components(g)
	return &dataset{name: name, n: g.N(), m: g.M(), text: edgeListText(g.N(), edges), labels: labels, count: count, g: g}
}

// edgeListText writes the "n m" header and one "u v" line per edge, the
// format POST /v1/graphs parses.
func edgeListText(n int, edges []graph.Edge) []byte {
	buf := make([]byte, 0, 16+len(edges)*16)
	buf = strconv.AppendInt(buf, int64(n), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(len(edges)), 10)
	buf = append(buf, '\n')
	return appendEdges(buf, edges)
}

// appendEdges appends "u v" lines, the edge-batch wire format.
func appendEdges(buf []byte, edges []graph.Edge) []byte {
	for _, e := range edges {
		buf = strconv.AppendInt(buf, int64(e.U), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e.V), 10)
		buf = append(buf, '\n')
	}
	return buf
}

// gndDataset is a sample of the paper's G(n, d) distribution.
func gndDataset(name string, seed uint64, stream uint64, n, d int) (*dataset, error) {
	rng := rngFor(seed, stream)
	g, err := gen.RandomGND(n, d, rng)
	if err != nil {
		return nil, err
	}
	return newDataset(name, g, rng), nil
}

// gridDataset is a rows×cols grid with vertex IDs permuted by the seed,
// the high-diameter shape.
func gridDataset(seed uint64, rows, cols int) *dataset {
	rng := rngFor(seed, streamGrid)
	perm := rng.Perm(rows * cols)
	grid := gen.Grid(rows, cols)
	b := graph.NewBuilderHint(grid.N(), grid.M())
	grid.ForEachEdge(func(e graph.Edge) { b.AddEdge(graph.Vertex(perm[e.U]), graph.Vertex(perm[e.V])) })
	return newDataset("grid", b.Build(), rng)
}

// expanderDataset is the random d-regular expander the paper-mpc
// workload solves with the paper's pipeline.
func expanderDataset(seed uint64, n, d int) (*dataset, error) {
	rng := rngFor(seed, streamExpander)
	g, err := gen.Expander(n, d, rng)
	if err != nil {
		return nil, err
	}
	return newDataset("expander", g, rng), nil
}

// pairs draws k uniform vertex pairs in [0, n).
func pairs(rng *rand.Rand, n, k int) [][2]graph.Vertex {
	out := make([][2]graph.Vertex, k)
	for i := range out {
		out[i] = [2]graph.Vertex{graph.Vertex(rng.IntN(n)), graph.Vertex(rng.IntN(n))}
	}
	return out
}
