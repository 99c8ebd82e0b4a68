package main

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dsr/internal/dsr"
	"dsr/internal/serve"
)

// Open-loop load on the serving layer: requests are due on a fixed
// schedule whatever the server's state, as from independent users, and
// are sent over serveConns pipelined connections.
const (
	serveConns = 2
	// maxLag is how late the generator may send (p99) before a step is
	// void: a late generator offers less load than the step claims.
	maxLag = 10 * time.Millisecond
	// maxOutstanding stops a step whose backlog has clearly run away,
	// below the serving layer's per-client shedding bound (256), so the
	// benchmark's own overload never turns into shed requests.
	maxOutstanding = 192
)

// request is one scheduled serving request.
type request struct {
	q     *dsr.Query
	truth bool
	hot   bool
	due   time.Time
	sent  time.Time
	done  time.Time
	ans   bool
	err   error
}

// stepStats is one open-loop serving window at a fixed offered rate.
type stepStats struct {
	rate      float64 // offered, q/s
	phase     int
	achieved  float64   // answered requests per second of the step
	seqLatMs  []float64 // every sent request in due order; +Inf when not answered
	coldLatMs []float64 // cache-bypassing requests that were answered
	lagMs     []float64
	answered  int
	shed      int
	sent      int
	grew      bool // outstanding requests grew across the step
	stopped   bool // backlog reached maxOutstanding
	start     int64
	end       int64 // recorder time, for attributing traced calls
}

// Serving rates. lowRate is well below every workload's capacity; each
// workload's inputs name a high rate near its own (inputs.highRate).
// Low windows alternate with the closed-loop windows through the run.
// A traced run adds high windows to the cycle and, at the end, rungs
// above the high rate that climb by rungRatio until two in a row miss
// sloMs, or maxRungs.
const (
	lowRate    = 400
	lowWindow  = 400 * time.Millisecond
	highWindow = 600 * time.Millisecond
	rungRatio  = 1.12
	maxRungs   = 6
	sloMs      = 50
	// groupReqs is the least number of requests one p99 is taken over.
	groupReqs = 1000
)

// step runs one open-loop step and records it.
func (m *measurement) step(clients []*serve.Client, st *streamer, rate float64, dur time.Duration, rec *recorder) *stepStats {
	phase := phaseStep0 + len(m.steps)
	setPhase(rec, phase)
	s := runStep(clients, st, rate, dur, rec)
	s.phase = phase
	m.steps = append(m.steps, s)
	return s
}

// climb runs the rungs above the high rate.
func (m *measurement) climb(clients []*serve.Client, st *streamer, high float64, dur time.Duration, rec *recorder) {
	misses := 0
	if !m.highs.meets() {
		misses++
	}
	rate := high
	for i := 0; i < maxRungs && misses < 2; i++ {
		rate *= rungRatio
		s := m.step(clients, st, rate, dur, rec)
		m.rungs = append(m.rungs, s)
		logf("rung %6.0f q/s: achieved %7.1f p50 %6.2f ms p99 %7.2f ms lag99 %5.2f ms grew %v stopped %v",
			rate, s.achieved, s.latency(0.5), s.latency(0.99), quantile(s.lagMs, 0.99), s.grew, s.stopped)
		if (rateWindows{s}).meets() {
			misses = 0
		} else {
			misses++
		}
	}
}

// sloQPS is the achieved rate at the highest offered rate that met the
// limit: a rung, else the high windows, else the low windows; 0 when
// none did.
func (m *measurement) sloQPS() float64 {
	rates := []rateWindows{m.lows, m.highs}
	for _, s := range m.rungs {
		rates = append(rates, rateWindows{s})
	}
	best, bestRate := 0.0, 0.0
	for _, ws := range rates {
		if ws.meets() && ws[0].rate > bestRate {
			best, bestRate = ws.achieved(), ws[0].rate
		}
	}
	return best
}

// rateWindows are the steps run at one offered rate.
type rateWindows []*stepStats

// latency is the windowed p-quantile latency over the windows' requests
// in order, in groups of at least groupReqs (see windowed).
func (ws rateWindows) latency(p float64) float64 {
	var seq []float64
	for _, s := range ws {
		seq = append(seq, s.seqLatMs...)
	}
	return windowed(seq, p, groupReqs, latencyWindowQ)
}

// achieved is the median achieved rate over the windows.
func (ws rateWindows) achieved() float64 {
	per := make([]float64, len(ws))
	for i, s := range ws {
		per[i] = s.achieved
	}
	return median(per)
}

// meets reports whether the rate counts as meeting the latency limit:
// its p99 is within sloMs and most of its windows are valid.
func (ws rateWindows) meets() bool {
	if len(ws) == 0 {
		return false
	}
	valid := 0
	for _, s := range ws {
		if s.valid() {
			valid++
		}
	}
	return 2*valid > len(ws) && ws.latency(0.99) <= sloMs
}

// valid reports whether the generator held its schedule and the system
// kept up with it, so the step's latency can be trusted.
func (s *stepStats) valid() bool {
	return !s.grew && !s.stopped && quantile(s.lagMs, 0.99) <= float64(maxLag)/1e6
}

// latency is the step's p-quantile latency. Every request that was
// shed or failed counts as missing any limit.
func (s *stepStats) latency(p float64) float64 {
	return quantile(append([]float64(nil), s.seqLatMs...), p)
}

// streamer draws the serving request stream: hotShare of requests from
// the hot set, the rest cycling through the pool in order.
type streamer struct {
	in   *inputs
	rng  *rand.Rand
	next int
}

func (s *streamer) draw() request {
	if len(s.in.hot) > 0 && s.rng.Float64() < s.in.hotShare {
		i := s.rng.Intn(len(s.in.hot))
		return request{q: &s.in.hot[i], truth: s.in.hotTrue[i], hot: true}
	}
	i := s.next
	s.next = (s.next + 1) % len(s.in.queries)
	return request{q: &s.in.queries[i], truth: s.in.truth[i]}
}

// runStep offers rate q/s for dur over the clients and waits for every
// answer.
func runStep(clients []*serve.Client, st *streamer, rate float64, dur time.Duration, rec *recorder) *stepStats {
	total := int(rate * dur.Seconds())
	reqs := make([]request, total)
	for i := range reqs {
		reqs[i] = st.draw()
	}
	res := &stepStats{rate: rate}
	if rec != nil {
		res.start = rec.now()
	}
	t0 := time.Now().Add(time.Millisecond)
	for i := range reqs {
		reqs[i].due = t0.Add(time.Duration(float64(i) / rate * 1e9))
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	samples := make([][]outSample, len(clients))
	for c, cl := range clients {
		wg.Add(1)
		go func(c int, cl *serve.Client) {
			defer wg.Done()
			samples[c] = drive(cl, reqs, c, len(clients), &stop)
		}(c, cl)
	}
	wg.Wait()
	end := time.Now()
	if rec != nil {
		res.end = rec.now()
	}

	var first, second []float64
	for _, ss := range samples {
		for _, s := range ss {
			at := s.at.Sub(t0).Seconds() / dur.Seconds()
			switch {
			case at >= 0.1 && at < 0.55:
				first = append(first, float64(s.n))
			case at >= 0.55:
				second = append(second, float64(s.n))
			}
		}
	}
	res.grew = mean(second) > 2*mean(first)+8
	res.stopped = stop.Load()
	for i := range reqs {
		r := &reqs[i]
		if r.sent.IsZero() {
			continue
		}
		res.sent++
		res.lagMs = append(res.lagMs, float64(r.sent.Sub(r.due))/1e6)
		if oe := (*serve.OverloadError)(nil); errors.As(r.err, &oe) {
			res.shed++
		}
		if r.err != nil || r.ans != r.truth {
			res.seqLatMs = append(res.seqLatMs, math.Inf(1))
			continue
		}
		res.answered++
		lat := float64(r.done.Sub(r.due)) / 1e6
		res.seqLatMs = append(res.seqLatMs, lat)
		if !r.hot {
			res.coldLatMs = append(res.coldLatMs, lat)
		}
	}
	res.achieved = float64(res.answered) / end.Sub(t0).Seconds()
	return res
}

// outSample is one reading of a client's outstanding requests.
type outSample struct {
	at time.Time
	n  int
}

// drive sends requests c, c+stride, ... of reqs over cl on schedule and
// collects their answers. Each time the sender wakes it sends every
// request already due, so coarse timer wake-ups delay requests but
// never drop load.
func drive(cl *serve.Client, reqs []request, c, stride int, stop *atomic.Bool) []outSample {
	sentc := make(chan int, len(reqs)/stride+1)
	var received atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range sentc {
			r := &reqs[i]
			r.ans, r.err = cl.Recv()
			r.done = time.Now()
			received.Add(1)
		}
	}()
	var samples []outSample
	sent := 0
	for i := c; i < len(reqs) && !stop.Load(); i += stride {
		r := &reqs[i]
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		out := sent - int(received.Load())
		samples = append(samples, outSample{at: now, n: out})
		if out >= maxOutstanding {
			stop.Store(true)
			break
		}
		r.sent = now
		if err := cl.Send(r.q.S, r.q.T); err != nil {
			r.err = err
			break
		}
		sent++
		sentc <- i
	}
	close(sentc)
	wg.Wait()
	return samples
}

// Saturation windows drive the serving layer closed-loop: each
// connection keeps satDepth requests outstanding (well under the
// per-client shedding bound of 256) for satWindow, sending the next
// request as each answer arrives. Their throughput is the serving
// layer's capacity on the workload's request mix. Each window is
// followed at once by the whole-graph BFS over the window's requests
// from the pool, as the closed-loop windows are. Hot-set requests are
// left out of the BFS: they are the cache's to answer, and the BFS cost
// of the 32 queries a seed happens to draw would make the baseline
// swing from seed to seed.
const (
	satDepth  = 32
	satWindow = 150 * time.Millisecond
)

// satStats is one saturation window.
type satStats struct {
	qps        float64
	bfsQPS     float64 // the BFS over the window's pool requests
	sent       int
	answered   int
	start, end int64 // recorder time, for attributing traced calls
}

// saturate runs one saturation window over the clients, then the BFS
// of ref over its pool requests.
func saturate(clients []*serve.Client, st *streamer, ref *closedLoop, rec *recorder) *satStats {
	reqs := make([][]request, len(clients))
	var mu sync.Mutex // guards st, which both connections draw from
	s := &satStats{}
	if rec != nil {
		s.start = rec.now()
	}
	start := time.Now()
	deadline := start.Add(satWindow)
	var wg sync.WaitGroup
	for c, cl := range clients {
		wg.Add(1)
		go func(c int, cl *serve.Client) {
			defer wg.Done()
			var rs []request
			send := func() bool {
				mu.Lock()
				r := st.draw()
				mu.Unlock()
				r.sent = time.Now()
				r.err = cl.Send(r.q.S, r.q.T)
				rs = append(rs, r)
				return r.err == nil
			}
			ok := true
			for len(rs) < satDepth && ok {
				ok = send()
			}
			// A failed send is the last request and has no answer to read.
			for i := 0; i < len(rs) && rs[i].err == nil; i++ {
				ans, err := cl.Recv()
				rs[i].ans, rs[i].err, rs[i].done = ans, err, time.Now()
				if ok && err == nil && time.Now().Before(deadline) {
					ok = send()
				}
			}
			reqs[c] = rs
		}(c, cl)
	}
	wg.Wait()
	if rec != nil {
		s.end = rec.now()
	}
	last := start
	var qs []dsr.Query
	for _, rs := range reqs {
		for i := range rs {
			r := &rs[i]
			if !r.hot {
				qs = append(qs, *r.q)
			}
			s.sent++
			if r.err == nil && r.ans == r.truth {
				s.answered++
			}
			if r.done.After(last) {
				last = r.done
			}
		}
	}
	s.qps = float64(s.answered) / last.Sub(start).Seconds()
	s.bfsQPS = float64(len(qs)) / ref.bfsOver(qs).Seconds()
	return s
}
