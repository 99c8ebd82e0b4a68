package main

import (
	"runtime"
	"time"

	"dsr/internal/dsr"
)

// batchSize is the closed-loop batch: the engine's intended way to be
// driven, and the serving layer's default MaxBatch.
const batchSize = 64

// Closed-loop windows, from one calling goroutine. Every engine call
// is followed at once by the benchmark's whole-graph BFS over the same
// queries, so the two run milliseconds apart and see the same machine
// conditions. On a shared machine the speed of the processor moves by
// a quarter within seconds; the ratio of the pair's times cancels that,
// where either time alone does not.
const (
	batchWindow  = 150 * time.Millisecond
	singleWindow = 150 * time.Millisecond
)

// answer is one engine answer, kept for the oracle check after the
// timed window.
type answer struct {
	idx int32 // index into inputs.queries
	ans bool
	err bool
}

// closedStats is what the closed-loop windows measured.
type closedStats struct {
	batchMs     []float64 // engine latency of each 64-query batch
	batchBfsMs  []float64 // BFS time over the same 64 queries
	singleUs    []float64 // engine latency of each one-query round
	singleBfsUs []float64 // BFS time over the same query
	answers     []answer
}

// closedLoop drives the engine directly, cycling through the query
// pool. With a recorder, each engine call is recorded for the trace.
type closedLoop struct {
	st    closedStats
	call  func([]dsr.Query) ([]bool, error)
	pool  []dsr.Query
	next  int
	batch []dsr.Query
	idx   []int32
	bfs   *bfs
}

func newClosedLoop(eng *dsr.Engine, in *inputs, rec *recorder) *closedLoop {
	c := &closedLoop{
		st:    closedStats{answers: make([]answer, 0, 1<<18)},
		call:  eng.QueryBatchErr,
		pool:  in.queries,
		batch: make([]dsr.Query, batchSize),
		idx:   make([]int32, batchSize),
		bfs:   newBFS(in.g),
	}
	if rec != nil {
		c.call = func(qs []dsr.Query) ([]bool, error) { return rec.timedCall(eng, qs) }
	}
	return c
}

// run sends the next m pool queries as one engine call and returns its
// latency. The call's queries stay in c.batch[:m].
func (c *closedLoop) run(m int) time.Duration {
	for i := 0; i < m; i++ {
		c.batch[i], c.idx[i] = c.pool[c.next], int32(c.next)
		c.next = (c.next + 1) % len(c.pool)
	}
	t0 := time.Now()
	ans, err := c.call(c.batch[:m])
	d := time.Since(t0)
	for i := 0; i < m; i++ {
		a := answer{idx: c.idx[i], err: err != nil}
		if ans != nil {
			a.ans = ans[i]
		}
		c.st.answers = append(c.st.answers, a)
	}
	return d
}

// warm runs batches and single queries, unmeasured, for d.
func (c *closedLoop) warm(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
		c.run(batchSize)
		c.bfsOver(c.batch)
		c.run(1)
	}
}

// batches runs 64-query batches for batchWindow of engine time, each
// followed by the BFS over the same queries.
func (c *closedLoop) batches() {
	for spent := time.Duration(0); spent < batchWindow; {
		d := c.run(batchSize)
		spent += d
		c.st.batchMs = append(c.st.batchMs, float64(d)/1e6)
		c.st.batchBfsMs = append(c.st.batchBfsMs, float64(c.bfsOver(c.batch))/1e6)
	}
}

// singles runs one-query rounds for singleWindow of engine time, each
// followed by the BFS on the same query.
func (c *closedLoop) singles() {
	for spent := time.Duration(0); spent < singleWindow; {
		d := c.run(1)
		spent += d
		c.st.singleUs = append(c.st.singleUs, float64(d)/1e3)
		c.st.singleBfsUs = append(c.st.singleBfsUs, float64(c.bfsOver(c.batch[:1]))/1e3)
	}
}

// bfsOver answers qs with the whole-graph BFS and returns how long
// that took.
func (c *closedLoop) bfsOver(qs []dsr.Query) time.Duration {
	t0 := time.Now()
	for i := range qs {
		c.bfs.reach(qs[i].S, qs[i].T)
	}
	return time.Since(t0)
}

// setPhase starts a window of the run: it collects garbage, so that a
// collection left due by the previous window does not land at a random
// point of this one, and tags the trace (when there is one).
func setPhase(rec *recorder, phase int) {
	runtime.GC()
	if rec != nil {
		rec.setPhase(phase)
	}
}
