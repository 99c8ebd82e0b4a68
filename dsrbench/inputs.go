package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"dsr/internal/dsr"
	"dsr/internal/graph"
	"dsr/internal/graph/gen"
	"dsr/internal/partition/locality"
)

// Graph and query shapes of the three workloads. The planted graph is
// the paper's regime: dense communities joined by few edges, so a
// locality partitioning leaves a small boundary. The uniform graph is
// the adversarial case: most vertices have a cross-partition edge
// under hash placement.
const (
	numVertices = 50000
	numParts    = 4

	plantedIntraDeg = 8
	plantedInterDeg = 0.05

	uniformEdges = 75000

	// poolSize is the number of distinct queries every workload cycles
	// through. It exceeds the serving layer's default result cache (4096
	// entries), so an LRU cycling through the pool in order never hits;
	// the engine has no result cache, so repeats cost it the same as new
	// queries.
	poolSize = 6144

	// The serve workload sends a share of its open-loop requests from a
	// small hot set, which the serving layer's cache answers after first
	// sight.
	serveHot      = 32
	serveHotShare = 0.25
)

// inputs is everything a run generates from its seed: the graph, the
// partitioner the fleet applies to it, and the query pools with their
// oracle answers.
type inputs struct {
	workload string
	seed     int64
	g        *graph.Graph
	part     graph.Partitioner

	queries []dsr.Query // the cycled pool of distinct queries
	truth   []bool      // oracle answer per queries[i]

	// hot is the serve workload's repeated set; hotShare of its serving
	// requests come from it. Empty (share 0) on the other workloads.
	hot      []dsr.Query
	hotTrue  []bool
	hotShare float64

	// highRate is the serving rate (q/s) the high windows offer: 65-90%
	// of what this workload sustains within sloMs on one processor.
	highRate float64
}

// workloads lists the benchmark's workloads in the order they are
// documented.
var workloads = []string{"locality", "hash", "serve"}

// makeInputs generates the workload's graph and queries from seed and
// answers every query with the benchmark's own whole-graph BFS.
func makeInputs(workload string, seed int64) (*inputs, error) {
	in := &inputs{workload: workload, seed: seed}
	qrng := rand.New(rand.NewSource(seed*7919 + 17))
	switch workload {
	case "locality", "serve":
		g, _, err := gen.Planted(gen.PlantedConfig{
			N: numVertices, K: numParts,
			IntraDeg: plantedIntraDeg, InterDeg: plantedInterDeg,
			Seed: seed, Shuffle: true,
		})
		if err != nil {
			return nil, err
		}
		in.g = g
		in.part = locality.New(locality.Options{})
		in.highRate = 1800
		if workload == "serve" {
			in.hot = randomQueries(qrng, serveHot, 1, 8)
			in.hotShare = serveHotShare
			in.highRate = 2600
		}
		in.queries = randomQueries(qrng, poolSize, 1, 8)
	case "hash":
		in.g = uniformGraph(numVertices, uniformEdges, rand.New(rand.NewSource(seed)))
		in.part = graph.Hash()
		in.highRate = 1300
		in.queries = randomQueries(qrng, poolSize, 1, 2)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	in.truth = oracleAnswers(in.g, in.queries)
	in.hotTrue = oracleAnswers(in.g, in.hot)
	return in, nil
}

// uniformGraph draws m directed edges with independent uniform
// endpoints (self-loops redrawn) over n vertices.
func uniformGraph(n, m int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < m; {
		u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		b.AddEdge(u, v)
		i++
	}
	return b.Build()
}

// randomQueries draws count queries whose S and T each hold lo..hi
// uniform vertices.
func randomQueries(rng *rand.Rand, count, lo, hi int) []dsr.Query {
	side := func() []graph.VertexID {
		ids := make([]graph.VertexID, lo+rng.Intn(hi-lo+1))
		for i := range ids {
			ids[i] = graph.VertexID(rng.Intn(numVertices))
		}
		return ids
	}
	qs := make([]dsr.Query, count)
	for i := range qs {
		qs[i] = dsr.Query{S: side(), T: side()}
	}
	return qs
}

// identity fingerprints a run's inputs so two runs can be shown to have
// measured the same (or different) data.
type identity struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Graph        string  `json:"graph_fingerprint"`
	Partitioning string  `json:"partitioning_digest"`
	Boundary     int     `json:"boundary_vertices"`
	Queries      string  `json:"query_digest"`
	NumQueries   int     `json:"queries"`
	TrueShare    float64 `json:"true_share"`
}

// identify computes the identity of in under partitioning pt.
func identify(in *inputs, pt *graph.Partitioning) identity {
	h := fnv.New64a()
	var buf [4]byte
	put := func(v uint32) {
		buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(buf[:])
	}
	trues, total := 0, 0
	for _, set := range []struct {
		qs    []dsr.Query
		truth []bool
	}{{in.hot, in.hotTrue}, {in.queries, in.truth}} {
		for i, q := range set.qs {
			put(uint32(len(q.S)))
			for _, v := range q.S {
				put(v)
			}
			put(uint32(len(q.T)))
			for _, v := range q.T {
				put(v)
			}
			if set.truth[i] {
				trues++
			}
			total++
		}
	}
	return identity{
		Workload:     in.workload,
		Seed:         in.seed,
		Graph:        fmt.Sprintf("%016x", in.g.Fingerprint()),
		Partitioning: fmt.Sprintf("%016x", pt.Digest()),
		Boundary:     pt.NumBoundary(),
		Queries:      fmt.Sprintf("%016x", h.Sum64()),
		NumQueries:   total,
		TrueShare:    float64(trues) / float64(total),
	}
}
