// Command dsrbench is the DSR benchmark: it generates a workload's graph
// and queries from a seed, builds a shard fleet on loopback TCP with a
// coordinator engine and a serving layer in front, drives it closed-loop
// and open-loop through public APIs only, checks every answer against
// its own whole-graph BFS, and prints the metrics as one JSON line.
//
//	dsrbench --workload locality --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 repeats the run
// with the shard transport and the serving layer's engine wrapped in
// recorders, and reports per-layer metrics (see README.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dsr/internal/serve"
)

// Which window of a run the serving latencies report (see windowed):
// the lower quartile.
const latencyWindowQ = 0.25

// procs is how many threads may run the process's Go code at once. The
// fleet, the coordinator, the serving layer, its clients and the BFS
// baseline all share one, so that the benchmark measures the work a
// query costs rather than how a shared 2-core machine schedules a
// dozen busy goroutines; the other core is left to the kernel's
// loopback networking and to neighbours.
const procs = 1

// setupReps is how many times a run builds the fleet; setup_s is the
// median. Only the last fleet is measured.
const setupReps = 5

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dsrbench: "+format+"\n", args...)
}

func main() {
	workload := flag.String("workload", "", "workload: locality, hash or serve")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	spans := flag.String("spans", "", "traced runs: write spans to this file (default .bench_build/spans-<workload>-<seed>.jsonl)")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		logf("bad flags: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	out, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spans)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	id, _ := json.Marshal(map[string]any{"inputs": out.id})
	fmt.Println(string(id))
	// JSON has neither infinities nor NaN: a latency quantile that landed
	// on failed requests (+Inf, and the run reports "correct": false) or
	// a metric left without samples (NaN) prints as the largest float.
	for name, m := range out.result.Metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			logf("%s is %v", name, m.Value)
			m.Value = math.MaxFloat64
			out.result.Metrics[name] = m
		}
	}
	line, err := json.Marshal(out.result)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type output struct {
	id     identity
	result result
}

// measurement is everything one run measured, traced or not.
type measurement struct {
	setups    []setupTimes
	heapMB    float64
	fleet     *fleet
	closed    *closedStats
	steps     []*stepStats // every measured serving window
	lows      rateWindows
	highs     rateWindows
	rungs     []*stepStats
	sats      []*satStats
	attempted int
	failed    int
}

func run(workload string, seed int64, budget time.Duration, traced bool, spansPath string) (*output, error) {
	in, err := makeInputs(workload, seed)
	if err != nil {
		return nil, err
	}
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	m, err := measure(in, budget, rec)
	if err != nil {
		return nil, err
	}
	out := &output{id: identify(in, m.fleet.pt)}
	out.result = result{Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	e2e, abs := endToEnd(m), absolutes(m)
	for name, v := range abs {
		logf("%s = %.4g %s", name, v.Value, v.Unit)
	}
	if !traced {
		out.result.Metrics = e2e
		out.result.Correct = m.failed == 0
		return out, nil
	}
	rep, err := replay(m, rec)
	if err != nil {
		return nil, err
	}
	layers, consistent := perLayer(m, rec, rep)
	for name, v := range e2e {
		layers["traced."+name] = v
	}
	for name, v := range abs {
		layers[name] = v
	}
	for name, v := range tails(m) {
		layers[name] = v
	}
	out.result.Metrics = layers
	out.result.Correct = m.failed == 0 && consistent
	if spansPath == "" {
		spansPath = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
	}
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(spansPath, rec.spans(rep.spans)); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return out, nil
}

// measure sets the fleet up setupReps times, then drives the last one,
// closed-loop on the engine and open-loop through the serving layer.
// Answers are checked against the oracle afterwards.
func measure(in *inputs, budget time.Duration, rec *recorder) (*measurement, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	m := &measurement{}
	base := heapInUse()
	for i := 0; i < setupReps; i++ {
		f, err := buildFleet(ctx, in, rec != nil, rec)
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, f.times)
		if i < setupReps-1 {
			f.close()
			continue
		}
		m.fleet = f
	}
	defer m.fleet.close()
	m.heapMB = float64(heapInUse()-base) / 1e6

	clients := make([]*serve.Client, serveConns)
	for i := range clients {
		cl, err := serve.Dial(m.fleet.srvAddr)
		if err != nil {
			return nil, fmt.Errorf("dial serving layer: %w", err)
		}
		defer cl.Close()
		clients[i] = cl
	}

	// Windows of every kind alternate through the run, so that a spell
	// of neighbour load on a shared machine slows some windows of each
	// kind rather than all windows of one. The high-rate windows and the
	// rate climb only feed the traced run's per-layer metrics, so an
	// untraced run leaves them out.
	cl := newClosedLoop(m.fleet.eng, in, rec)
	st := &streamer{in: in, rng: rand.New(rand.NewSource(in.seed*31 + 7))}
	setPhase(rec, phaseWarm)
	cl.warm(budget / 40)
	runStep(clients, st, lowRate, budget/40, nil)
	climb := time.Duration(0)
	if rec != nil {
		climb = budget / 4
	}
	for end := time.Now().Add(budget - budget/20 - climb); time.Now().Before(end); {
		setPhase(rec, phaseBatch)
		cl.batches()
		setPhase(rec, phaseSaturate)
		m.sats = append(m.sats, saturate(clients, st, cl, rec))
		setPhase(rec, phaseSingle)
		cl.singles()
		m.lows = append(m.lows, m.step(clients, st, lowRate, lowWindow, rec))
		if rec != nil {
			m.highs = append(m.highs, m.step(clients, st, in.highRate, highWindow, rec))
		}
		setPhase(rec, phaseSaturate)
		m.sats = append(m.sats, saturate(clients, st, cl, rec))
	}
	if rec != nil {
		m.climb(clients, st, in.highRate, climb/maxRungs, rec)
	}
	m.closed = &cl.st
	logf("samples: %d batches, %d single rounds, %d low and %d high windows, %d saturation windows, %d rungs",
		len(m.closed.batchMs), len(m.closed.singleUs), len(m.lows), len(m.highs), len(m.sats), len(m.rungs))

	for _, a := range m.closed.answers {
		if a.err || a.ans != in.truth[a.idx] {
			m.failed++
		}
	}
	m.attempted += len(m.closed.answers)
	for _, s := range m.steps {
		m.attempted += s.sent
		m.failed += s.sent - s.answered
	}
	for _, s := range m.sats {
		m.attempted += s.sent
		m.failed += s.sent - s.answered
	}
	return m, nil
}

// setupMedian is the median over the run's set-ups of one part of
// set-up.
func (m *measurement) setupMedian(part func(setupTimes) time.Duration) float64 {
	xs := make([]float64, len(m.setups))
	for i, st := range m.setups {
		xs[i] = part(st).Seconds()
	}
	return median(xs)
}

// heapInUse returns the live Go heap after a forced collection.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// endToEnd computes the end-to-end metrics: the ones that held steady
// to within their bounds across ten runs on a shared 2-core VM. Engine
// and serving speed are reported as speed-ups over the benchmark's
// whole-graph BFS, each side of a pair timed milliseconds after the
// other (see closedLoop).
func endToEnd(m *measurement) map[string]metric {
	c := m.closed
	return map[string]metric{
		"setup_s":               {m.setupMedian(func(s setupTimes) time.Duration { return s.total }), "s"},
		"heap_mb":               {m.heapMB, "MB"},
		"correct_share":         {float64(m.attempted-m.failed) / float64(m.attempted), "ratio"},
		"speedup_vs_bfs":        {pairedRatio(c.batchBfsMs, c.batchMs, batchGroup), "ratio"},
		"single_speedup_vs_bfs": {pairedRatio(c.singleBfsUs, c.singleUs, singleGroup), "ratio"},
		"serve_speedup_vs_bfs":  {m.serveSpeedup(), "ratio"},
		"p50_ms.low":            {m.lows.latency(0.5), "ms"},
	}
}

// Paired samples are summed in groups this large before their ratio is
// taken: 512 queries of 64-query batches, 64 one-query rounds.
const (
	batchGroup  = 8
	singleGroup = 64
)

// pairedRatio splits the paired samples num and den into consecutive
// groups of g pairs and returns the interquartile mean over groups of
// the ratio of their sums.
func pairedRatio(num, den []float64, g int) float64 {
	var rs []float64
	for i := 0; i+g <= len(num); i += g {
		a, b := 0.0, 0.0
		for j := i; j < i+g; j++ {
			a += num[j]
			b += den[j]
		}
		rs = append(rs, a/b)
	}
	if len(rs) == 0 { // a run too short for one group
		return sum(num) / sum(den)
	}
	return midMean(rs)
}

// serveSpeedup is the interquartile mean over saturation windows of
// the serving layer's throughput over the BFS's on the same requests.
func (m *measurement) serveSpeedup() float64 {
	rs := make([]float64, len(m.sats))
	for i, s := range m.sats {
		rs[i] = s.qps / s.bfsQPS
	}
	return midMean(rs)
}

// absolutes computes the engine's and the serving layer's own speeds,
// and the BFS baseline's. On a shared 2-core VM these moved by a
// quarter between runs with no code change, so they are reported, not
// gated: as per-layer metrics of the traced run, and on standard error
// in every run.
func absolutes(m *measurement) map[string]metric {
	c := m.closed
	sats := make([]float64, len(m.sats))
	for i, s := range m.sats {
		sats[i] = s.qps
	}
	// quantile sorts in place; the paired samples must keep their order.
	q := func(xs []float64, p float64) float64 { return quantile(append([]float64(nil), xs...), p) }
	return map[string]metric{
		"engine.batch_qps":     {batchSize * 1e3 / q(c.batchMs, 0.5), "q/s"},
		"engine.batch_p90_ms":  {q(c.batchMs, 0.9), "ms"},
		"engine.single_p50_us": {q(c.singleUs, 0.5), "us"},
		"bfs.batch_qps":        {batchSize * 1e3 / q(c.batchBfsMs, 0.5), "q/s"},
		"serve.sat_qps":        {median(sats), "q/s"},
	}
}

// tails computes the tail-latency and latency-limit metrics of the
// traced run. On a shared 2-core VM their run-to-run spread is several
// times any usable bound (p99s moved 2-3x between runs with no code
// change), so they are reported, not gated.
func tails(m *measurement) map[string]metric {
	return map[string]metric{
		"tail.single_p99_us": {quantile(append([]float64(nil), m.closed.singleUs...), 0.99), "us"},
		"tail.p99_ms.low":    {m.lows.latency(0.99), "ms"},
		"tail.p50_ms.high":   {m.highs.latency(0.5), "ms"},
		"tail.p99_ms.high":   {m.highs.latency(0.99), "ms"},
		"tail.slo_qps":       {m.sloQPS(), "q/s"},
	}
}
