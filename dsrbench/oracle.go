package main

import (
	"sync"

	"dsr/internal/dsr"
	"dsr/internal/graph"
)

// bfs is the benchmark's oracle and its whole-graph baseline: a
// multi-source BFS over the full graph from S that stops at the first
// vertex of T. It shares no code with the engine under test. Marks use
// epochs, so a query costs only the vertices it visits.
type bfs struct {
	g      *graph.Graph
	visit  []uint32
	target []uint32
	epoch  uint32
	queue  []graph.VertexID
}

func newBFS(g *graph.Graph) *bfs {
	n := g.NumVertices()
	return &bfs{g: g, visit: make([]uint32, n), target: make([]uint32, n)}
}

// reach reports whether some vertex of S reaches some vertex of T
// (reflexively). Out-of-range vertices are ignored.
func (b *bfs) reach(S, T []graph.VertexID) bool {
	b.epoch++
	ep := b.epoch
	n := graph.VertexID(len(b.visit))
	for _, t := range T {
		if t < n {
			b.target[t] = ep
		}
	}
	q := b.queue[:0]
	for _, s := range S {
		if s >= n || b.visit[s] == ep {
			continue
		}
		if b.target[s] == ep {
			return true
		}
		b.visit[s] = ep
		q = append(q, s)
	}
	for head := 0; head < len(q); head++ {
		for _, w := range b.g.Out(q[head]) {
			if b.visit[w] == ep {
				continue
			}
			if b.target[w] == ep {
				b.queue = q
				return true
			}
			b.visit[w] = ep
			q = append(q, w)
		}
	}
	b.queue = q
	return false
}

// oracleAnswers answers every query with the BFS, split over two
// goroutines (the inputs are built before anything is timed).
func oracleAnswers(g *graph.Graph, qs []dsr.Query) []bool {
	out := make([]bool, len(qs))
	const workers = 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := newBFS(g)
			for i := w; i < len(qs); i += workers {
				out[i] = b.reach(qs[i].S, qs[i].T)
			}
		}(w)
	}
	wg.Wait()
	return out
}
