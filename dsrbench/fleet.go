package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dsr/internal/dsr"
	"dsr/internal/graph"
	"dsr/internal/partition"
	"dsr/internal/serve"
	"dsr/internal/shard"
)

// setupTimes splits one set-up into the layers it passes through.
type setupTimes struct {
	partition time.Duration // Partitioner.Partition
	extract   time.Duration // partition.Extract
	build     time.Duration // shard.New + Summary, all k shards
	start     time.Duration // shard.NewServer + listen, all k shards
	dial      time.Duration // shard.Dial
	connect   time.Duration // dsr.ConnectTransport: summary fetch + stitch
	serve     time.Duration // serve.New + listen
	total     time.Duration
}

// fleet is one deployment built from a run's inputs: k shard servers on
// loopback TCP, the coordinator engine connected to them, and the
// serving layer in front of the engine.
type fleet struct {
	pt      *graph.Partitioning
	subs    []*partition.Subgraph
	servers []*shard.Server
	eng     *dsr.Engine
	srv     *serve.Server
	srvAddr string
	tr      *tracer  // traced runs only
	q       *querier // traced runs only
	times   setupTimes

	serving sync.WaitGroup // Serve goroutines of the shard servers and srv
}

// buildFleet takes the generated graph to an engine answering queries
// behind a serving layer. With traced set, the engine talks to its
// shards through a tracer and the serving layer calls it through a
// querier, both of which record spans from outside.
func buildFleet(ctx context.Context, in *inputs, traced bool, rec *recorder) (f *fleet, err error) {
	f = &fleet{}
	defer func() {
		if err != nil {
			f.close()
			f = nil
		}
	}()
	n := in.g.NumVertices()
	t0 := time.Now()
	lap := func(d *time.Duration) {
		now := time.Now()
		*d = now.Sub(t0)
		t0 = now
	}
	begin := t0

	if f.pt, err = in.part.Partition(in.g, numParts); err != nil {
		return f, fmt.Errorf("partition: %w", err)
	}
	lap(&f.times.partition)

	f.subs, _ = partition.Extract(in.g, f.pt)
	lap(&f.times.extract)

	shards := make([]*shard.Shard, numParts)
	for i := range shards {
		shards[i] = shard.New(i, f.subs[i])
		shards[i].Summary()
	}
	lap(&f.times.build)

	fp, digest := in.g.Fingerprint(), f.pt.Digest()
	addrs := make([]string, numParts)
	for i, sh := range shards {
		srv := shard.NewServer(sh, numParts, n, fp, digest)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return f, fmt.Errorf("listen: %w", err)
		}
		f.servers = append(f.servers, srv)
		addrs[i] = ln.Addr().String()
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			srv.Serve(ln)
		}()
	}
	lap(&f.times.start)

	cl, err := shard.Dial(ctx, addrs, n, fp, digest)
	if err != nil {
		return f, fmt.Errorf("dial: %w", err)
	}
	lap(&f.times.dial)

	var tr shard.Transport = cl
	if traced {
		f.tr = newTracer(cl, rec)
		tr = f.tr
	}
	if f.eng, err = dsr.ConnectTransport(ctx, tr, numParts, n, dsr.Options{}); err != nil {
		tr.Close()
		return f, fmt.Errorf("connect: %w", err)
	}
	lap(&f.times.connect)

	var q serve.Querier = f.eng
	if traced {
		f.q = newQuerier(f.eng, rec)
		q = f.q
	}
	f.srv = serve.New(q, serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return f, fmt.Errorf("listen: %w", err)
	}
	f.srvAddr = ln.Addr().String()
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		f.srv.Serve(ln)
	}()
	lap(&f.times.serve)
	f.times.total = time.Since(begin)
	return f, nil
}

// close stops everything buildFleet started and waits for it. The
// serving layer's clients must have disconnected first.
func (f *fleet) close() {
	if f.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := f.srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logf("serve shutdown: %v", err)
		}
		cancel()
	}
	if f.eng != nil {
		f.eng.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	f.serving.Wait()
}
