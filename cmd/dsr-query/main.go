// Command dsr-query is the DSR coordinator CLI: it answers
// set-reachability queries read from stdin, either against a fleet of
// dsr-shard servers (-shards) or fully in-process (-graph).
//
// Query format, one per line:
//
//	1 2 3 | 9 10
//
// sources left of '|', targets right, whitespace-separated; the answer
// (true/false) is printed per line. With -batch all queries are read
// first and shipped as one QueryBatch — one round-trip per shard for
// the entire workload. A malformed line is reported on stderr with its
// line number and skipped; the process still answers every well-formed
// query but exits non-zero, so pipelines can't silently lose queries.
//
//	dsr-query -shards 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -batch
//	dsr-query -graph edges.txt -k 4                        # in-process, no servers needed
//	dsr-query -graph edges.txt -k 4 -partitioner locality  # boundary-minimizing partitions
//
// With -shards the coordinator is graph-free: it takes no graph file
// and no partitioner spec — those belong to the shards. At connect
// time each shard ships its boundary summary (its boundary vertices,
// entry→exit summary edges, and cross-partition edges) and the
// coordinator stitches them into the global boundary graph; shard
// identity comes from the handshake, and a fleet whose shards disagree
// with each other (different graphs or partitionings) is refused with
// exit status 3. Passing -graph, -k, or -partitioner together with
// -shards is an error (exit status 2). -connect-timeout bounds the
// whole connect phase; summary-fetch progress is logged to stderr.
//
// Replication: each comma-separated -shards entry may be a '|' group
// of interchangeable replica servers for that partition
// ("a:7000|b:7000,c:7001|d:7001"). The coordinator load-balances
// across replicas, retries mid-query failures on a sibling, and
// reconnects dead replicas in the background. If every replica of a
// partition is down, only the queries that needed that partition fail:
// they print "error" in place of an answer (the outage is detailed
// once per partition on stderr), the rest of the stream keeps being
// answered, and the exit code turns non-zero.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dsr/internal/core"
	"dsr/internal/graph"
	"dsr/internal/obs"
	"dsr/internal/obs/fleet"
	"dsr/internal/partition/locality"
)

// The process exit-code contract, documented in README.md ("Exit
// codes") and shared by dsr-serve. Tests assert observed codes through
// the wantExit helper (exitcode_test.go), so the table, the constants,
// and every assertion stay one definition.
const (
	exitOK       = 0 // every line parsed, every query answered
	exitPartial  = 1 // partial or runtime failure: malformed lines skipped, queries failed on unavailable partitions, connect/IO errors
	exitUsage    = 2 // flag misuse: bad flag values, or graph-describing flags combined with -shards
	exitMismatch = 3 // misassembled fleet: shards disagree about graph/partitioning (core.MismatchError)
)

func main() {
	var (
		graphPath      = flag.String("graph", "", "edge-list file for in-process mode: one 'u v' pair per line (forbidden with -shards)")
		shards         = flag.String("shards", "", "comma-separated shard addresses (shard i at position i), each optionally a 'a|b' replica group; empty runs in-process")
		k              = flag.Int("k", 4, "partition count for in-process mode (forbidden with -shards)")
		batch          = flag.Bool("batch", false, "read all queries first and answer them as one batch")
		partitioner    = flag.String("partitioner", "hash", "in-process partitioning strategy: hash, range, or locality[:seed=N,rounds=N,balance=F,refine=N] (forbidden with -shards)")
		connectTimeout = flag.Duration("connect-timeout", 30*time.Second, "with -shards: time limit for dialing the fleet and fetching boundary summaries")
		metricsAddr    = flag.String("metrics-addr", "", "serve the metrics registry (JSON at /metrics) and net/http/pprof on this address; empty disables")
		slowQuery      = flag.Duration("slow-query", 0, "log a structured span trace for any batch slower than this; 0 disables")
		logLevel       = flag.String("log-level", "info", "log level floor: debug, info, warn, or error")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsr-query: -log-level: %v\n", err)
		os.Exit(exitUsage)
	}
	logger := obs.StderrLogger(level).With("component", "dsr-query")
	reg := obs.NewRegistry()
	// The ops endpoint must be up before the engine exists (connecting
	// can take a while and operators want liveness meanwhile), so the
	// fleet aggregator reads the engine through an atomic pointer that
	// is filled in once connected. Until then /fleet serves just the
	// coordinator's own registry.
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
			os.Exit(exitPartial)
		}
		logger.Infof("metrics on http://%s/metrics (fleet view at /fleet, pprof under /debug/pprof/)", ops.Addr())
	}

	var eng *core.Engine
	rt := core.Runtime{Metrics: reg, Log: logger, SlowQuery: *slowQuery}
	if *shards != "" {
		// Graph-free mode: the coordinator learns the deployment from the
		// fleet itself. Flags that describe the graph belong to the
		// shards; accepting them here would suggest they have an effect.
		var rejected []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "graph", "partitioner", "k":
				rejected = append(rejected, "-"+f.Name)
			}
		})
		if len(rejected) > 0 {
			fmt.Fprintf(os.Stderr, "dsr-query: %s cannot be combined with -shards: the coordinator is graph-free and learns the deployment from the shard fleet\n",
				strings.Join(rejected, ", "))
			os.Exit(exitUsage)
		}
		ctx, cancel := context.WithTimeout(context.Background(), *connectTimeout)
		eng, err = core.Connect(ctx, core.ClusterSpec{
			Groups:  strings.Split(*shards, ","),
			Runtime: rt,
		})
		cancel()
		if err != nil {
			logger.Errorf("connect shards: %v", err)
			var me *core.MismatchError
			if errors.As(err, &me) {
				// The shards disagree with each other about the deployment —
				// a misassembled fleet, distinct from any transport failure.
				os.Exit(exitMismatch)
			}
			os.Exit(exitPartial)
		}
		logger.Infof("connected to %d shards, %d boundary vertices, %d coordinator-resident bytes",
			eng.NumPartitions(), eng.NumBoundary(), eng.ResidentBytes())
	} else {
		if *graphPath == "" {
			fmt.Fprintln(os.Stderr, "dsr-query: -graph is required (in-process mode) or -shards (distributed mode)")
			flag.Usage()
			os.Exit(exitUsage)
		}
		strat, err := locality.ParseSpec(*partitioner)
		if err != nil {
			logger.Errorf("-partitioner: %v", err)
			os.Exit(exitPartial)
		}
		g, err := graph.LoadEdgeListFile(*graphPath)
		if err != nil {
			logger.Errorf("load graph: %v", err)
			os.Exit(exitPartial)
		}
		eng, err = core.Build(g, core.Options{K: *k, Partitioner: strat, Runtime: rt})
		if err != nil {
			logger.Errorf("build engine: %v", err)
			os.Exit(exitPartial)
		}
		logger.Infof("in-process engine: %d %s-partitioned partitions, %d boundary vertices",
			eng.NumPartitions(), strat.Name(), eng.NumBoundary())
	}
	engPtr.Store(eng) // /fleet now sees the shard endpoints
	// Interactive distributed sessions report what the failover
	// machinery did on the way out — invisible otherwise, since retried
	// queries still answer normally. runQueries prints it on every
	// ending, including error ones, where it matters most.
	var healthLog func(string, ...any)
	if *shards != "" && !*batch {
		healthLog = logger.Infof
	}
	// No defer: os.Exit skips deferred calls, so close explicitly.
	code := runQueries(eng, os.Stdin, os.Stdout, os.Stderr, *batch, healthLog)
	eng.Close()
	ops.Close()
	os.Exit(code)
}

// engine is the slice of core.Engine a query session needs, narrowed
// so session tests can substitute a fake that fails on demand.
type engine interface {
	QueryBatchErr([]core.Query) ([]bool, error)
	Health() []core.PartitionHealth
}

// runQueries drives one query session: reads queries from in, writes
// answers to out and per-line problems to errw, and returns the process
// exit code — 0 only if every line parsed and every query was answered.
// Malformed lines are skipped (with a per-line error naming the line
// number), not fatal: the remaining well-formed queries still get
// answers, but the exit code turns non-zero so callers can't mistake a
// partially-processed workload for a clean run. Partial shard outages
// degrade the same way: queries that needed an unavailable partition
// print "error" (positions stay aligned with the input), everything
// else is still answered, and the exit code turns non-zero.
//
// A non-nil healthLog gets one replica-health summary line per
// partition when the session ends — on every ending, error ones
// included: a session that dies on a failed query is exactly the one
// whose retry/failover history the operator needs to see.
func runQueries(eng engine, in io.Reader, out, errw io.Writer, batch bool, healthLog func(string, ...any)) int {
	if healthLog != nil {
		defer func() {
			for _, ph := range eng.Health() {
				healthLog("partition %d: %d/%d replicas live, retries=%d failovers=%d redials=%d",
					ph.Partition, ph.Live, ph.Replicas, ph.Retries, ph.Failovers, ph.Redials)
			}
		}()
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	w := bufio.NewWriter(out)
	defer w.Flush()

	failedQueries := 0
	// emit answers one batch of queries, printing "error" in place of
	// answers a partition outage invalidated. It reports false only on
	// unrecoverable errors (protocol violation, closed transport).
	emit := func(qs []core.Query) bool {
		answers, err := eng.QueryBatchErr(qs)
		var be *core.BatchError
		if err != nil && !errors.As(err, &be) {
			fmt.Fprintf(errw, "dsr-query: query failed: %v\n", err)
			return false
		}
		if be != nil {
			for _, pe := range be.Partitions {
				fmt.Fprintf(errw, "dsr-query: partition %d unavailable: %v\n", pe.Partition, pe.Err)
			}
		}
		for i := range answers {
			if be != nil && be.Failed[i] {
				failedQueries++
				fmt.Fprintln(w, "error")
			} else {
				fmt.Fprintln(w, answers[i])
			}
		}
		return true
	}

	var queries []core.Query
	lineno, badLines := 0, 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		q, err := parseQuery(line)
		if err != nil {
			fmt.Fprintf(errw, "dsr-query: line %d: %v\n", lineno, err)
			badLines++
			continue
		}
		if batch {
			queries = append(queries, q)
			continue
		}
		if !emit([]core.Query{q}) {
			return exitPartial
		}
		// Interactive mode answers as it goes: flush per line so a piped
		// driver sees each answer before sending the next query.
		w.Flush()
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(errw, "dsr-query: read input: %v\n", err)
		return exitPartial
	}
	if batch && len(queries) > 0 && !emit(queries) {
		return exitPartial
	}
	if badLines > 0 {
		fmt.Fprintf(errw, "dsr-query: %d malformed line(s) skipped\n", badLines)
	}
	if failedQueries > 0 {
		fmt.Fprintf(errw, "dsr-query: %d query(ies) failed on unavailable partitions\n", failedQueries)
	}
	if badLines > 0 || failedQueries > 0 {
		return exitPartial
	}
	return exitOK
}

// parseQuery parses "s1 s2 ... | t1 t2 ..." into a Query.
func parseQuery(line string) (core.Query, error) {
	var q core.Query
	left, right, found := strings.Cut(line, "|")
	if !found {
		return q, fmt.Errorf("want 'sources | targets', got %q", line)
	}
	var err error
	if q.S, err = parseIDs(left); err != nil {
		return q, fmt.Errorf("sources: %v", err)
	}
	if q.T, err = parseIDs(right); err != nil {
		return q, fmt.Errorf("targets: %v", err)
	}
	return q, nil
}

func parseIDs(s string) ([]graph.VertexID, error) {
	var ids []graph.VertexID
	for _, f := range strings.Fields(s) {
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad vertex %q: %v", f, err)
		}
		ids = append(ids, graph.VertexID(v))
	}
	return ids, nil
}
