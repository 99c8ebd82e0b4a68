package dsr

import (
	"math/rand"
	"testing"

	"dsr/internal/graph"
	"dsr/internal/graph/gen"
	"dsr/internal/partition/locality"
)

func build(n int, edges [][2]graph.VertexID) *graph.Graph {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func TestQueryHandBuilt(t *testing.T) {
	// Two 4-cycles joined by bridge 3->4, range-partitioned in half.
	g := build(8, [][2]graph.VertexID{
		{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 4},
	})
	pt, err := graph.RangePartition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(g, Options{Partitioning: pt})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	cases := []struct {
		name string
		S, T []graph.VertexID
		want bool
	}{
		{"same vertex", []graph.VertexID{2}, []graph.VertexID{2}, true},
		{"within partition", []graph.VertexID{0}, []graph.VertexID{3}, true},
		{"across bridge", []graph.VertexID{0}, []graph.VertexID{6}, true},
		{"against bridge", []graph.VertexID{5}, []graph.VertexID{0}, false},
		{"set hit", []graph.VertexID{5, 1}, []graph.VertexID{7, 9}, true},
		{"empty sources", nil, []graph.VertexID{1}, false},
		{"empty targets", []graph.VertexID{1}, nil, false},
		{"out of range ignored", []graph.VertexID{100}, []graph.VertexID{100}, false},
	}
	for _, c := range cases {
		if got := e.Query(c.S, c.T); got != c.want {
			t.Errorf("%s: Query(%v, %v) = %v, want %v", c.name, c.S, c.T, got, c.want)
		}
		if got := NaiveReach(g, c.S, c.T); got != c.want {
			t.Errorf("%s: oracle disagrees with expectation: %v", c.name, got)
		}
	}
}

// randomGraph generates a graph with n vertices and ~n*deg random edges.
func randomGraph(rng *rand.Rand, n int, deg float64) *graph.Graph {
	b := graph.NewBuilder(n)
	m := int(float64(n) * deg)
	for i := 0; i < m; i++ {
		b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
	}
	return b.Build()
}

func randomSet(rng *rand.Rand, n, maxSize int) []graph.VertexID {
	size := rng.Intn(maxSize + 1)
	s := make([]graph.VertexID, 0, size)
	for i := 0; i < size; i++ {
		s = append(s, graph.VertexID(rng.Intn(n)))
	}
	return s
}

// TestQueryDifferential compares the partitioned engine against the
// whole-graph BFS oracle on randomized graphs and query sets, across
// all three partitioners (hash, range, locality). Fixed seed keeps
// failures reproducible.
func TestQueryDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	const graphs = 120
	queriesPer := 8
	checked := 0
	for gi := 0; gi < graphs; gi++ {
		n := 1 + rng.Intn(60)
		deg := []float64{0.5, 1, 2, 4}[rng.Intn(4)]
		g := randomGraph(rng, n, deg)
		k := 2 + rng.Intn(4) // always >= 2 partitions
		var pt *graph.Partitioning
		var err error
		switch gi % 3 {
		case 0:
			pt, err = graph.HashPartition(g, k)
		case 1:
			pt, err = graph.RangePartition(g, k)
		case 2:
			pt, err = locality.Partition(g, k, locality.Options{Seed: int64(gi)})
		}
		if err != nil {
			t.Fatal(err)
		}
		e, err := Build(g, Options{Partitioning: pt})
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < queriesPer; qi++ {
			S := randomSet(rng, n, 5)
			T := randomSet(rng, n, 5)
			got := e.Query(S, T)
			want := NaiveReach(g, S, T)
			if got != want {
				t.Fatalf("graph %d (n=%d, k=%d), query %d: Query(%v, %v) = %v, oracle = %v",
					gi, n, k, qi, S, T, got, want)
			}
			checked++
		}
		e.Close()
	}
	if checked < 100 {
		t.Fatalf("only %d differential cases ran, want >= 100", checked)
	}
}

// TestQuerySingleVertexGraphs covers the degenerate sizes where boundary
// sets are empty or a partition has no vertices at all.
func TestQuerySingleVertexGraphs(t *testing.T) {
	g := build(1, nil)
	e, err := Build(g, Options{K: 4}) // more partitions than vertices
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if !e.Query([]graph.VertexID{0}, []graph.VertexID{0}) {
		t.Error("vertex should reach itself")
	}
	if e.Query([]graph.VertexID{0}, nil) {
		t.Error("empty target set should be unreachable")
	}
}

func TestQueryAfterClose(t *testing.T) {
	g := build(2, [][2]graph.VertexID{{0, 1}})
	e, err := Build(g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // double close must be safe
	defer func() {
		if recover() == nil {
			t.Error("Query on closed engine should panic, not silently answer")
		}
	}()
	e.Query([]graph.VertexID{0}, []graph.VertexID{1})
}

func TestBuildPartitioningMismatch(t *testing.T) {
	g := build(3, [][2]graph.VertexID{{0, 1}})
	pt, err := graph.HashPartition(build(5, nil), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(g, Options{Partitioning: pt}); err == nil {
		t.Fatal("want error for mismatched partitioning")
	}
	// Hand-rolled partitioning with absent (or wrong) boundary marks is
	// normalized: marks are recomputed from the edge set, so the engine
	// still answers correctly instead of panicking or mis-answering.
	bare := &graph.Partitioning{K: 2, Part: []int32{0, 1, 0}}
	e, err := Build(g, Options{Partitioning: bare})
	if err != nil {
		t.Fatalf("bare partitioning rejected: %v", err)
	}
	defer e.Close()
	if !e.Query([]graph.VertexID{0}, []graph.VertexID{1}) {
		t.Fatal("0 should reach 1 across recomputed boundary")
	}
	if e.Query([]graph.VertexID{1}, []graph.VertexID{0}) {
		t.Fatal("1 must not reach 0")
	}
	// Partition labels outside [0, K) must be rejected, not panic.
	oob := &graph.Partitioning{K: 2, Part: []int32{0, 5, 0}}
	if _, err := Build(g, Options{Partitioning: oob}); err == nil {
		t.Fatal("want error for out-of-range partition label")
	}
	// An explicit K that disagrees with the supplied partitioning is a
	// caller bug, not something to silently resolve either way.
	if _, err := Build(g, Options{K: 3, Partitioning: bare}); err == nil {
		t.Fatal("want error for K conflicting with Partitioning.K")
	}
}

// BenchmarkQuery seeds the performance trajectory: a 10k-vertex random
// graph, 4 partitions, pre-generated random query sets.
func BenchmarkQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 10000
	g := randomGraph(rng, n, 4)
	e, err := Build(g, Options{K: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	const nq = 256
	queries := make([][2][]graph.VertexID, nq)
	for i := range queries {
		queries[i] = [2][]graph.VertexID{randomSet(rng, n, 8), randomSet(rng, n, 8)}
	}
	benchQueries(b, e, queries)
}

// benchQueries times single queries cycling through queries, after one
// unmeasured pass that warms the engine's scratch (steady state, not
// first-round arena growth, is what the numbers describe).
func benchQueries(b *testing.B, e *Engine, queries [][2][]graph.VertexID) {
	for _, q := range queries {
		e.Query(q[0], q[1])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		e.Query(q[0], q[1])
	}
}

// benchNaiveReach times the whole-graph BFS baseline on the same
// queries, warmed the same way.
func benchNaiveReach(b *testing.B, g *graph.Graph, queries [][2][]graph.VertexID) {
	for _, q := range queries {
		NaiveReach(g, q[0], q[1])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		NaiveReach(g, q[0], q[1])
	}
}

// localityWorkload is the paper's regime: a 50k-vertex planted-partition
// graph (4 communities, intra out-degree 8, inter 0.05, shuffled IDs)
// with locality partitioning into 4 parts, which leaves a boundary of a
// few thousand vertices, and 256 queries of 1-8 sources and targets.
func localityWorkload(b *testing.B) (*graph.Graph, [][2][]graph.VertexID) {
	g, _, err := gen.Planted(gen.PlantedConfig{N: 50000, K: 4, IntraDeg: 8, InterDeg: 0.05, Seed: 1, Shuffle: true})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	queries := make([][2][]graph.VertexID, 256)
	for i := range queries {
		queries[i] = [2][]graph.VertexID{randomSet(rng, g.NumVertices(), 8), randomSet(rng, g.NumVertices(), 8)}
	}
	return g, queries
}

// BenchmarkQueryLocality measures single in-process queries in the
// paper's regime (see localityWorkload); BenchmarkNaiveReachLocality is
// its whole-graph BFS baseline.
func BenchmarkQueryLocality(b *testing.B) {
	g, queries := localityWorkload(b)
	e, err := Build(g, Options{K: 4, Partitioner: locality.New(locality.Options{})})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	benchQueries(b, e, queries)
}

// BenchmarkNaiveReachLocality is the unpartitioned baseline for
// BenchmarkQueryLocality.
func BenchmarkNaiveReachLocality(b *testing.B) {
	g, queries := localityWorkload(b)
	benchNaiveReach(b, g, queries)
}

// BenchmarkIndexBuild measures full engine construction — subgraph
// extraction, SCC condensation, bitset index propagation, boundary
// stitching — on a 50k-vertex hash-partitioned random graph where
// nearly every vertex is boundary (~48k entries). This configuration
// took ~50s with the per-entry-BFS summaries; the SCC bitset index
// makes it word-parallel near-linear work.
func BenchmarkIndexBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const n = 50000
	g := randomGraph(rng, n, 4)
	build := func() {
		e, err := Build(g, Options{K: 4})
		if err != nil {
			b.Fatal(err)
		}
		e.Close()
	}
	build() // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build()
	}
}

// BenchmarkNaiveReach is the unpartitioned baseline for the same workload.
func BenchmarkNaiveReach(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 10000
	g := randomGraph(rng, n, 4)
	const nq = 256
	queries := make([][2][]graph.VertexID, nq)
	for i := range queries {
		queries[i] = [2][]graph.VertexID{randomSet(rng, n, 8), randomSet(rng, n, 8)}
	}
	benchNaiveReach(b, g, queries)
}
