package main

import (
	"fmt"
	"slices"
	"time"

	"dsr/internal/shard"
	"dsr/internal/wire"
)

// replayRound is what replaying one captured round measured, per
// partition.
type replayRound struct {
	search      [numParts]time.Duration // (*Shard).Run
	encode      [numParts]time.Duration // AppendTasks + AppendResults
	decode      [numParts]time.Duration // DecodeTasks + DecodeResults
	taskBytes   [numParts]int
	resultBytes [numParts]int
	frontier    int // boundary IDs returned, all partitions
	hits        int // queries some partition answered with a local hit
}

type replayed struct {
	rounds     map[int]*replayRound // by index into recorder.rounds
	spans      []span
	mismatches int // replayed results that differ from the live replies
	compared   int
}

// replay reruns every captured round after the timed window: through a
// fresh Shard per partition (built over the same subgraphs as the live
// servers, so it does the same work without sharing their scratch),
// then through the wire codec. Where the live replies were kept, the
// replayed results must equal them.
func replay(m *measurement, rec *recorder) (*replayed, error) {
	rec.match()
	shards := make([]*shard.Shard, numParts)
	for p := range shards {
		shards[p] = shard.New(p, m.fleet.subs[p])
	}
	rp := &replayed{rounds: map[int]*replayRound{}}
	var (
		tbuf, rbuf []byte
		tdst       []wire.Task
		tarena     []int32
		rdst       []wire.Result
		rarena     []uint32
		hit        []bool
		err        error
	)
	for ri := range rec.rounds {
		rd := &rec.rounds[ri]
		if rd.tasks == nil {
			continue
		}
		x := &replayRound{}
		hit = hit[:0]
		for p := 0; p < numParts; p++ {
			t0 := rec.now()
			res := shards[p].Run(rd.tasks)
			t1 := rec.now()
			if rd.keepLive {
				rp.compared++
				if !sameResults(res, rd.live[p]) {
					rp.mismatches++
				}
			}
			for _, r := range res {
				x.frontier += len(r.Boundary)
				if r.Kind == wire.Forward && r.Hit {
					for int(r.Query) >= len(hit) {
						hit = append(hit, false)
					}
					hit[r.Query] = true
				}
			}
			tbuf = wire.AppendTasks(tbuf[:0], wire.BatchHeader{Batch: rd.batch}, rd.tasks)
			t2 := rec.now()
			if _, tdst, tarena, err = wire.DecodeTasks(tbuf, tdst[:0], tarena[:0]); err != nil {
				return nil, fmt.Errorf("replay decode tasks: %w", err)
			}
			t3 := rec.now()
			rbuf = wire.AppendResults(rbuf[:0], rd.batch, false, res)
			t4 := rec.now()
			if _, rdst, rarena, err = wire.DecodeResults(rbuf, rdst[:0], rarena[:0]); err != nil {
				return nil, fmt.Errorf("replay decode results: %w", err)
			}
			t5 := rec.now()
			x.search[p] = time.Duration(t1 - t0)
			x.encode[p] = time.Duration(t2 - t1 + t4 - t3)
			x.decode[p] = time.Duration(t3 - t2 + t5 - t4)
			x.taskBytes[p], x.resultBytes[p] = len(tbuf), len(rbuf)
			phase := -1
			if rd.call >= 0 {
				phase = rec.calls[rd.call].phase
			}
			rp.spans = append(rp.spans,
				span{Name: "replay_shard_run", Start: t0, End: t1, Parent: -1, Batch: rd.batch, Part: p, Phase: phase},
				span{Name: "replay_wire_encode_tasks", Start: t1, End: t2, Parent: -1, Batch: rd.batch, Part: p, Phase: phase},
				span{Name: "replay_wire_decode_tasks", Start: t2, End: t3, Parent: -1, Batch: rd.batch, Part: p, Phase: phase},
				span{Name: "replay_wire_encode_results", Start: t3, End: t4, Parent: -1, Batch: rd.batch, Part: p, Phase: phase},
				span{Name: "replay_wire_decode_results", Start: t4, End: t5, Parent: -1, Batch: rd.batch, Part: p, Phase: phase})
		}
		for _, h := range hit {
			if h {
				x.hits++
			}
		}
		rp.rounds[ri] = x
	}
	return rp, nil
}

// sameResults reports whether two result batches agree in every field
// the coordinator reads: kind, query, owned count, hit, and the boundary
// IDs in order.
func sameResults(a, b []wire.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Kind != y.Kind || x.Query != y.Query || x.Owned != y.Owned || x.Hit != y.Hit || !slices.Equal(x.Boundary, y.Boundary) {
			return false
		}
	}
	return true
}

// callSplit is one engine call split at its first Submit and its last
// reply.
type callSplit struct {
	assemble, fanin, finish float64 // µs
}

func split(rec *recorder, c *call) callSplit {
	first, last := &rec.rounds[c.first], &rec.rounds[c.last]
	return callSplit{
		assemble: float64(first.first-c.start) / 1e3,
		fanin:    float64(last.last-first.first) / 1e3,
		finish:   float64(c.end-last.last) / 1e3,
	}
}

// checkCalls verifies the traced split of every call in phase: each
// part is non-negative, every shard RPC lies inside the fan-in, and the
// parts of the calls that ran a round cover the phase's engine time
// (calls without a round decided every query during assembly, which is
// rare). It returns a description of the first problem found.
func checkCalls(rec *recorder, phase int) error {
	var covered, total float64
	for ci := range rec.calls {
		c := &rec.calls[ci]
		if c.phase != phase {
			continue
		}
		total += float64(c.end - c.start)
		if c.first < 0 {
			continue
		}
		s := split(rec, c)
		if s.assemble < 0 || s.fanin < 0 || s.finish < 0 {
			return fmt.Errorf("phase %d call %d: negative part %+v", phase, ci, s)
		}
		first, last := &rec.rounds[c.first], &rec.rounds[c.last]
		for ri := c.first; ri <= c.last; ri++ {
			rd := &rec.rounds[ri]
			if rd.call != ci {
				continue
			}
			for p := 0; p < numParts; p++ {
				if rd.submit[p] < first.first || rd.reply[p] > last.last || rd.reply[p] < rd.submit[p] {
					return fmt.Errorf("phase %d call %d: partition %d RPC outside the fan-in", phase, ci, p)
				}
			}
		}
		covered += (s.assemble + s.fanin + s.finish) * 1e3
	}
	if total > 0 && covered < 0.97*total {
		return fmt.Errorf("phase %d: traced parts cover %.1f%% of engine call time", phase, 100*covered/total)
	}
	return nil
}

// perLayer computes the per-layer metrics of a traced run. consistent
// is false when the trace fails its own checks.
func perLayer(m *measurement, rec *recorder, rp *replayed) (map[string]metric, bool) {
	consistent := true
	fail := func(format string, args ...any) {
		consistent = false
		logf("trace check failed: "+format, args...)
	}
	if rp.compared == 0 {
		fail("no live replies were kept to compare with the replay")
	}
	if rp.mismatches > 0 {
		fail("%d of %d replayed shard results differ from the live replies", rp.mismatches, rp.compared)
	}
	phases := []int{phaseBatch, phaseSingle, phaseSaturate}
	for _, s := range m.steps {
		phases = append(phases, s.phase)
	}
	for _, ph := range phases {
		if err := checkCalls(rec, ph); err != nil {
			fail("%v", err)
		}
	}

	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	// Set-up layers: medians over the run's set-ups.
	med := m.setupMedian
	put("partition.partition_s", med(func(s setupTimes) time.Duration { return s.partition }), "s")
	put("partition.extract_s", med(func(s setupTimes) time.Duration { return s.extract }), "s")
	put("shard.build_s", med(func(s setupTimes) time.Duration { return s.build }), "s")
	put("dsr.connect_s", med(func(s setupTimes) time.Duration { return s.connect }), "s")
	put("partition.boundary_vertices", float64(m.fleet.pt.NumBoundary()), "count")
	put("dsr.boundary_vertices", float64(m.fleet.eng.NumBoundary()), "count")
	put("dsr.resident_bytes", float64(m.fleet.eng.ResidentBytes()), "bytes")

	// Engine and shard layers on the batch phase, per query.
	var nq, asm, fan, fin, tasks, rounds, calls float64
	var search, searchMax, frontier, hits, tbytes, rbytes, enc, dec, rq float64
	for ci := range rec.calls {
		c := &rec.calls[ci]
		if c.phase != phaseBatch {
			continue
		}
		calls++
		if c.first < 0 {
			continue
		}
		s := split(rec, c)
		nq += float64(c.nq)
		asm, fan, fin = asm+s.assemble, fan+s.fanin, fin+s.finish
		rounds += float64(c.rounds)
		for ri := c.first; ri <= c.last; ri++ {
			if rec.rounds[ri].call != ci {
				continue
			}
			tasks += float64(rec.rounds[ri].ntasks)
			x := rp.rounds[ri]
			if x == nil {
				continue
			}
			rq += float64(c.nq)
			var mx time.Duration
			for p := 0; p < numParts; p++ {
				search += x.search[p].Seconds() * 1e6
				mx = max(mx, x.search[p])
				tbytes += float64(x.taskBytes[p])
				rbytes += float64(x.resultBytes[p])
				enc += x.encode[p].Seconds() * 1e6
				dec += x.decode[p].Seconds() * 1e6
			}
			searchMax += mx.Seconds() * 1e6
			frontier += float64(x.frontier)
			hits += float64(x.hits)
		}
	}
	put("dsr.assemble_us", asm/nq, "us")
	put("dsr.fanin_us", fan/nq, "us")
	put("dsr.finish_us", fin/nq, "us")
	put("dsr.tasks_per_query", tasks/nq, "count")
	put("dsr.rounds_per_batch", rounds/calls, "count")
	put("shard.search_us", search/rq, "us")
	put("shard.search_max_us", searchMax/rq, "us")
	put("shard.frontier_per_query", frontier/rq, "count")
	put("shard.hit_share", hits/rq, "ratio")
	put("wire.task_bytes_per_query", tbytes/rq, "bytes")
	put("wire.result_bytes_per_query", rbytes/rq, "bytes")
	put("wire.encode_us", enc/rq, "us")
	put("wire.decode_us", dec/rq, "us")

	// Shard round trips on the one-query rounds, the latency path.
	var rtt, net []float64
	for ri := range rec.rounds {
		rd := &rec.rounds[ri]
		if rd.call < 0 || rec.calls[rd.call].phase != phaseSingle {
			continue
		}
		x := rp.rounds[ri]
		for p := 0; p < numParts; p++ {
			d := float64(rd.reply[p]-rd.submit[p]) / 1e3
			rtt = append(rtt, d)
			if x != nil {
				net = append(net, d-(x.search[p]+x.encode[p]+x.decode[p]).Seconds()*1e6)
			}
		}
	}
	put("shard.rtt_p50_us", quantile(rtt, 0.5), "us")
	put("shard.rtt_p99_us", quantile(rtt, 0.99), "us")
	put("shard.net_us", mean(net), "us")

	// Serving layer, from the querier's calls in the high windows (and
	// the low ones for batch size) and from the clients.
	type serveCalls struct {
		sizes, durs       []float64
		asm, fan, fin, nq float64
		wall, sent, cold  float64
		coldLat           []float64
	}
	gather := func(ws rateWindows) serveCalls {
		var sc serveCalls
		phases := map[int]bool{}
		for _, s := range ws {
			phases[s.phase] = true
			sc.wall += float64(s.end - s.start)
			sc.sent += float64(s.sent - s.shed)
			sc.coldLat = append(sc.coldLat, s.coldLatMs...)
		}
		for ci := range rec.calls {
			c := &rec.calls[ci]
			if !phases[c.phase] {
				continue
			}
			sc.sizes = append(sc.sizes, float64(c.nq))
			sc.durs = append(sc.durs, float64(c.end-c.start)/1e3)
			if c.first >= 0 {
				sp := split(rec, c)
				sc.asm, sc.fan, sc.fin = sc.asm+sp.assemble, sc.fan+sp.fanin, sc.fin+sp.finish
				sc.nq += float64(c.nq)
			}
		}
		return sc
	}
	low, high := gather(m.lows), gather(m.highs)
	engineQ, busy := 0.0, 0.0
	for i := range high.sizes {
		engineQ += high.sizes[i]
		busy += high.durs[i]
	}
	put("serve.batch_size_mean.low", mean(low.sizes), "count")
	put("serve.batch_size_mean", mean(high.sizes), "count")
	put("serve.batch_size_p99", quantile(high.sizes, 0.99), "count")
	put("serve.engine_call_p50_us", quantile(high.durs, 0.5), "us")
	put("serve.engine_call_p99_us", quantile(high.durs, 0.99), "us")
	put("serve.engine_call_ms", mean(high.durs)/1e3, "ms")
	put("serve.inflight_mean", busy*1e3/high.wall, "count")
	put("serve.outside_engine_ms", mean(high.coldLat)-mean(high.durs)/1e3, "ms")
	put("serve.cache_hit_share", 1-engineQ/high.sent, "ratio")
	var satSizes []float64
	satBusy, satWall := 0.0, 0.0
	for _, s := range m.sats {
		satWall += float64(s.end - s.start)
	}
	for ci := range rec.calls {
		if c := &rec.calls[ci]; c.phase == phaseSaturate {
			satSizes = append(satSizes, float64(c.nq))
			satBusy += float64(c.end - c.start)
		}
	}
	put("serve.batch_size_mean.sat", mean(satSizes), "count")
	put("serve.inflight_mean.sat", satBusy/satWall, "count")
	put("dsr.assemble_us.serve", high.asm/high.nq, "us")
	put("dsr.fanin_us.serve", high.fan/high.nq, "us")
	put("dsr.finish_us.serve", high.fin/high.nq, "us")
	var shed, sent float64
	var lag []float64
	for _, s := range m.steps {
		shed += float64(s.shed)
		sent += float64(s.sent)
		lag = append(lag, s.lagMs...)
	}
	put("serve.shed_share", shed/sent, "ratio")
	put("serve.gen_lag_p99_ms", quantile(lag, 0.99), "ms")
	return out, consistent
}
