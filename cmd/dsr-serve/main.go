// Command dsr-serve is the always-on DSR serving layer: it connects to
// a fleet of dsr-shard servers once, then accepts many client
// connections speaking the dsr-query line protocol ("s1 s2 | t1 t2"
// per line; "true", "false", or "error <kind>" per answer) and
// multiplexes them all onto that one coordinator.
//
//	dsr-serve -shards a:7000|b:7000,c:7001|d:7001 -listen :7200
//
// What the layer adds over running dsr-query per client:
//
//   - Cross-client batching: queries arriving within -batch-window (from
//     any connection) share one engine round, so shard RPC fan-out is
//     paid per batch, not per query.
//   - Result cache: a 2Q LRU over canonicalized query sets (-cache
//     entries; negative disables). Sound because the served graph is
//     immutable for the life of the fleet.
//   - Hedged requests (-hedge, replica groups required): batches that
//     outlast a latency quantile are re-sent to an idle sibling
//     replica, first answer wins.
//   - Admission control: -max-queued bounds total outstanding work,
//     -max-per-client keeps one connection from monopolizing it, and
//     rejected queries get "error overload: <scope>" immediately
//     instead of queueing forever.
//
// Flag misuse exits 2; a fleet whose shards disagree with each other
// exits 3 (same contract as dsr-query); other startup failures exit 1.
// SIGINT/SIGTERM drain gracefully: the listener closes, in-flight
// requests finish (bounded by -drain), then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"dsr/internal/core"
	"dsr/internal/obs"
	"dsr/internal/obs/fleet"
	"dsr/internal/serve"
)

// dsr-serve shares dsr-query's exit-code contract (README.md, "Exit
// codes"): 0 clean shutdown, 1 runtime failure or incomplete drain,
// 2 flag misuse, 3 misassembled fleet.
const (
	exitOK       = 0
	exitFailure  = 1
	exitUsage    = 2
	exitMismatch = 3
)

func main() {
	var (
		shards         = flag.String("shards", "", "comma-separated shard addresses (shard i at position i), each optionally a 'a|b' replica group (required)")
		listen         = flag.String("listen", ":7200", "address to serve the query protocol on")
		connectTimeout = flag.Duration("connect-timeout", 30*time.Second, "time limit for dialing the fleet and fetching boundary summaries")
		metricsAddr    = flag.String("metrics-addr", "", "serve the metrics registry (JSON at /metrics) and net/http/pprof on this address; empty disables")
		slowQuery      = flag.Duration("slow-query", 0, "log a structured span trace for any batch slower than this; 0 disables")
		logLevel       = flag.String("log-level", "info", "log level floor: debug, info, warn, or error")
		drain          = flag.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight requests on SIGINT/SIGTERM")

		batchWindow  = flag.Duration("batch-window", 250*time.Microsecond, "how long the first query of a batch waits for company before the batch departs")
		batchMax     = flag.Int("batch-max", 64, "depart a batch early once it holds this many queries")
		cacheEntries = flag.Int("cache", 4096, "result-cache capacity in entries; negative disables caching")
		maxQueued    = flag.Int("max-queued", 1024, "server-wide bound on queries admitted but not yet answered; beyond it clients get 'error overload: server'")
		maxPerClient = flag.Int("max-per-client", 256, "per-connection outstanding-query bound; beyond it that client gets 'error overload: client'")
		maxInFlight  = flag.Int("max-inflight", 4, "concurrent engine batch rounds; excess batches queue")

		hedge           = flag.Bool("hedge", false, "hedge slow shard rounds onto idle sibling replicas (requires replica groups in -shards)")
		hedgePercentile = flag.Float64("hedge-percentile", 0.99, "latency quantile of a partition's primary RPCs that arms the hedge deadline")
		hedgeMin        = flag.Duration("hedge-min", time.Millisecond, "lower clamp on the hedge deadline")
		hedgeMax        = flag.Duration("hedge-max", 100*time.Millisecond, "upper clamp on the hedge deadline, and the deadline while latency samples warm up")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsr-serve: -log-level: %v\n", err)
		os.Exit(exitUsage)
	}
	logger := obs.StderrLogger(level).With("component", "dsr-serve")
	if *shards == "" {
		fmt.Fprintln(os.Stderr, "dsr-serve: -shards is required: the serving layer fronts a running shard fleet")
		flag.Usage()
		os.Exit(exitUsage)
	}

	reg := obs.NewRegistry()
	// Same bring-up order as dsr-query: the ops endpoint is alive while
	// the fleet connect is still in progress, reading the engine through
	// an atomic pointer that fills in once connected.
	var engPtr atomic.Pointer[core.Engine]
	agg := fleet.New(reg, func() []fleet.Target {
		e := engPtr.Load()
		if e == nil {
			return nil
		}
		eps := e.Endpoints()
		targets := make([]fleet.Target, len(eps))
		for i, ep := range eps {
			targets[i] = fleet.Target{
				Partition:   ep.Partition,
				Replica:     ep.Replica,
				Addr:        ep.Addr,
				MetricsAddr: ep.MetricsAddr,
				Live:        ep.Live,
			}
		}
		return targets
	}, 0)
	var ops *obs.OpsServer // closed explicitly: os.Exit below skips defers
	if *metricsAddr != "" {
		ops, err = obs.StartOps(*metricsAddr, reg, obs.Mount{Pattern: "/fleet", Handler: agg.Handler()})
		if err != nil {
			logger.Errorf("metrics-addr: %v", err)
			os.Exit(exitFailure)
		}
		logger.Infof("metrics on http://%s/metrics (fleet view at /fleet, pprof under /debug/pprof/)", ops.Addr())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *connectTimeout)
	eng, err := core.Connect(ctx, core.ClusterSpec{
		Groups: strings.Split(*shards, ","),
		Runtime: core.Runtime{
			Log:       logger,
			Metrics:   reg,
			SlowQuery: *slowQuery,
			Hedge: core.HedgeOptions{
				Enabled:    *hedge,
				Percentile: *hedgePercentile,
				Min:        *hedgeMin,
				Max:        *hedgeMax,
			},
		},
	})
	cancel()
	if err != nil {
		logger.Errorf("connect shards: %v", err)
		var me *core.MismatchError
		if errors.As(err, &me) {
			os.Exit(exitMismatch)
		}
		os.Exit(exitFailure)
	}
	engPtr.Store(eng)
	logger.Infof("connected to %d shards, %d boundary vertices, %d coordinator-resident bytes",
		eng.NumPartitions(), eng.NumBoundary(), eng.ResidentBytes())

	srv := serve.New(eng, serve.Options{
		BatchWindow:  *batchWindow,
		MaxBatch:     *batchMax,
		CacheEntries: *cacheEntries,
		MaxQueued:    *maxQueued,
		MaxPerClient: *maxPerClient,
		MaxInFlight:  *maxInFlight,
		Metrics:      reg,
		Log:          logger,
	})
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Errorf("listen: %v", err)
		eng.Close()
		ops.Close()
		os.Exit(exitFailure)
	}
	logger.Infof("serving on %s", ln.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	servec := make(chan error, 1)
	go func() { servec <- srv.Serve(ln) }()

	code := exitOK
	select {
	case sig := <-sigc:
		logger.Infof("%s: draining (up to %v)", sig, *drain)
		dctx, dcancel := context.WithTimeout(context.Background(), *drain)
		if err := srv.Shutdown(dctx); err != nil {
			logger.Warnf("drain incomplete: %v", err)
			code = exitFailure
		}
		dcancel()
		<-servec
	case err := <-servec:
		// The accept loop died without a shutdown — a real failure.
		logger.Errorf("serve: %v", err)
		code = exitFailure
	}
	eng.Close()
	ops.Close()
	os.Exit(code)
}
