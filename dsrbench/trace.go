package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dsr/internal/dsr"
	"dsr/internal/shard"
	"dsr/internal/wire"
)

// Tracing from outside the program: the traced run wraps the engine's
// shard transport (tracer) and the serving layer's engine (querier) in
// the benchmark's own types, which time every call into the layer below
// and keep the stamps in memory. Nothing inside the program is
// instrumented; the engine runs with telemetry off in both runs.

// Phase tags a call with the part of the run that made it.
const (
	phaseWarm     = 0
	phaseBatch    = 1
	phaseSingle   = 2
	phaseSaturate = 3
	phaseStep0    = 10 // open-loop serving window i is phaseStep0+i
)

// call is one engine QueryBatchErr call as its caller saw it.
type call struct {
	phase      int
	start, end int64 // ns since the recorder's epoch
	nq         int
	// first and last index into recorder.rounds of the rounds the call
	// ran, set by match; first is -1 when no shard round ran (every
	// query was decided during assembly).
	first, last int
	rounds      int
}

// round is one engine fan-out: the same task batch submitted to every
// partition, and one reply from each.
type round struct {
	batch         uint64 // the engine's wire batch ID
	first, last   int64  // first Submit, last reply
	submit, reply [numParts]int64
	ntasks        int
	call          int // index into recorder.calls, set by match

	// Captured for replay after the timed window, within the capture
	// budget: a deep copy of the batch and, for fewer rounds, of each
	// partition's live reply.
	tasks    []wire.Task
	keepLive bool
	live     [numParts][]wire.Result
}

// recorder holds a traced run's stamps. All times are nanoseconds since
// epoch.
type recorder struct {
	epoch time.Time
	phase atomic.Int32

	mu     sync.Mutex
	calls  []call
	rounds []round

	// Remaining capture budgets per phase: how many more rounds to copy
	// for replay, and how many of those also keep their live replies.
	capture map[int]*[2]int
}

func newRecorder() *recorder {
	return &recorder{
		epoch:  time.Now(),
		calls:  make([]call, 0, 1<<15),
		rounds: make([]round, 0, 1<<15),
		capture: map[int]*[2]int{
			phaseBatch:  {200, 8},
			phaseSingle: {600, 32},
		},
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// setPhase tags subsequent calls and rounds with phase.
func (r *recorder) setPhase(phase int) { r.phase.Store(int32(phase)) }

// timedCall runs one engine call and records it.
func (r *recorder) timedCall(eng *dsr.Engine, qs []dsr.Query) ([]bool, error) {
	start := r.now()
	ans, err := eng.QueryBatchErr(qs)
	r.addCall(start, r.now(), len(qs))
	return ans, err
}

func (r *recorder) addCall(start, end int64, nq int) {
	r.mu.Lock()
	r.calls = append(r.calls, call{phase: int(r.phase.Load()), start: start, end: end, nq: nq, first: -1, last: -1})
	r.mu.Unlock()
}

// tracer is a shard.Transport that stamps each Submit and each
// per-partition reply, and copies task batches for replay. Replies pass
// through one forwarding goroutine, which is where reply times are
// taken.
type tracer struct {
	inner shard.Transport
	rec   *recorder
	mid   chan shard.Reply // inner transport -> forwarder
	done  chan struct{}

	out chan<- shard.Reply // the engine's reply channel; guarded by rec.mu
}

func newTracer(inner shard.Transport, rec *recorder) *tracer {
	t := &tracer{
		inner: inner,
		rec:   rec,
		// A round has at most one reply per partition in flight.
		mid:  make(chan shard.Reply, numParts),
		done: make(chan struct{}),
	}
	go t.forward()
	return t
}

// Submit implements shard.Transport. The engine submits a round to
// partitions 0..k-1 in order, under its query lock, and drains every
// reply before the next round, so partition 0 opens a round and every
// reply belongs to the latest one.
func (t *tracer) Submit(p int, h wire.BatchHeader, tasks []wire.Task, replyc chan<- shard.Reply) {
	r := t.rec
	r.mu.Lock()
	if p == 0 {
		rd := round{batch: h.Batch, ntasks: len(tasks), call: -1}
		if b := r.capture[int(r.phase.Load())]; b != nil && b[0] > 0 {
			b[0]--
			rd.tasks = copyTasks(tasks)
			if b[1] > 0 {
				b[1]--
				rd.keepLive = true
			}
		}
		r.rounds = append(r.rounds, rd)
	}
	rd := &r.rounds[len(r.rounds)-1]
	t.out = replyc
	now := r.now()
	if p == 0 {
		rd.first = now
	}
	rd.submit[p] = now
	r.mu.Unlock()
	t.inner.Submit(p, h, tasks, t.mid)
}

func (t *tracer) forward() {
	defer close(t.done)
	for rep := range t.mid {
		r := t.rec
		now := r.now()
		r.mu.Lock()
		rd := &r.rounds[len(r.rounds)-1]
		rd.reply[rep.Shard] = now
		rd.last = now
		if rd.keepLive && rep.Err == nil {
			rd.live[rep.Shard] = copyResults(rep.Results)
		}
		out := t.out
		r.mu.Unlock()
		out <- rep
	}
}

// Summary implements shard.Transport.
func (t *tracer) Summary(ctx context.Context, p int) (shard.SummaryInfo, error) {
	return t.inner.Summary(ctx, p)
}

// Close implements shard.Transport: once the inner transport has
// closed, nothing sends on mid any more, so the forwarder can stop.
func (t *tracer) Close() error {
	err := t.inner.Close()
	close(t.mid)
	<-t.done
	return err
}

func copyTasks(tasks []wire.Task) []wire.Task {
	out := make([]wire.Task, len(tasks))
	for i, tk := range tasks {
		out[i] = wire.Task{
			Kind: tk.Kind, Query: tk.Query,
			Seeds:   append([]int32(nil), tk.Seeds...),
			Targets: append([]int32(nil), tk.Targets...),
		}
	}
	return out
}

func copyResults(rs []wire.Result) []wire.Result {
	out := make([]wire.Result, len(rs))
	for i, r := range rs {
		out[i] = r
		out[i].Boundary = append([]uint32(nil), r.Boundary...)
	}
	return out
}

// querier is the serve.Querier handed to the serving layer in a traced
// run: it records each engine call the batcher makes.
type querier struct {
	eng *dsr.Engine
	rec *recorder
}

func newQuerier(eng *dsr.Engine, rec *recorder) *querier { return &querier{eng: eng, rec: rec} }

// QueryBatchErr implements serve.Querier.
func (q *querier) QueryBatchErr(qs []dsr.Query) ([]bool, error) {
	return q.rec.timedCall(q.eng, qs)
}

// match attributes every round to the engine call it ran in. The engine
// runs a call's rounds under its query lock, so a round's call started
// before the round and ended after its last reply. When several calls
// qualify (calls queued on the lock, whose end stamps, taken after the
// unlock, can land out of order), the earliest-ending one that has no
// round yet is chosen, else the earliest-ending one.
func (r *recorder) match() {
	order := make([]int, len(r.calls))
	var longest int64
	for i := range order {
		order[i] = i
		longest = max(longest, r.calls[i].end-r.calls[i].start)
	}
	sort.Slice(order, func(a, b int) bool { return r.calls[order[a]].end < r.calls[order[b]].end })
	lo := 0
	for ri := range r.rounds {
		rd := &r.rounds[ri]
		for lo < len(order) && r.calls[order[lo]].end < rd.last {
			lo++
		}
		pick := -1
		// A call ending after rd.first+longest started after rd.first.
		for ci := lo; ci < len(order) && r.calls[order[ci]].end <= rd.first+longest; ci++ {
			c := &r.calls[order[ci]]
			if c.start > rd.first {
				continue
			}
			if pick < 0 {
				pick = order[ci]
			}
			if c.first < 0 {
				pick = order[ci]
				break
			}
		}
		if pick < 0 {
			continue
		}
		c := &r.calls[pick]
		if c.first < 0 || ri < c.first {
			c.first = ri
		}
		c.last = max(c.last, ri)
		c.rounds++
		rd.call = pick
	}
}

// span is one timed interval of the trace file.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for none
	Batch  uint64 `json:"batch"`  // the engine's wire batch ID, 0 for none
	Part   int    `json:"part"`   // partition, -1 for none
	Phase  int    `json:"phase"`
}

// spans renders the recorded calls and rounds, plus the replay spans,
// as one span list.
func (r *recorder) spans(replays []span) []span {
	out := make([]span, 0, len(r.calls)*(4+numParts)+len(replays))
	for ci, c := range r.calls {
		root := len(out)
		var batch uint64
		if c.first >= 0 {
			batch = r.rounds[c.first].batch
		}
		out = append(out, span{Name: "engine_call", Start: c.start, End: c.end, Parent: -1, Batch: batch, Part: -1, Phase: c.phase})
		if c.first < 0 {
			continue
		}
		first, last := &r.rounds[c.first], &r.rounds[c.last]
		out = append(out,
			span{Name: "assemble", Start: c.start, End: first.first, Parent: root, Batch: batch, Part: -1, Phase: c.phase},
			span{Name: "fanin", Start: first.first, End: last.last, Parent: root, Batch: batch, Part: -1, Phase: c.phase})
		fan := len(out) - 1
		for ri := c.first; ri <= c.last; ri++ {
			rd := &r.rounds[ri]
			if rd.call != ci {
				continue
			}
			for p := 0; p < numParts; p++ {
				out = append(out, span{Name: "shard_rpc", Start: rd.submit[p], End: rd.reply[p], Parent: fan, Batch: rd.batch, Part: p, Phase: c.phase})
			}
		}
		out = append(out, span{Name: "finish", Start: last.last, End: c.end, Parent: root, Batch: batch, Part: -1, Phase: c.phase})
	}
	return append(out, replays...)
}

// writeSpans writes one JSON span per line to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
