package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"dsr/internal/graph"
	"dsr/internal/wire"
)

func inputsAndIdentity(t *testing.T, workload string, seed int64) identity {
	t.Helper()
	in, err := makeInputs(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := in.part.Partition(in.g, numParts)
	if err != nil {
		t.Fatal(err)
	}
	return identify(in, pt)
}

// The same seed must give the same inputs, and another seed other
// inputs, on every workload.
func TestInputsFollowSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := inputsAndIdentity(t, w, 1), inputsAndIdentity(t, w, 1), inputsAndIdentity(t, w, 2)
		if a != b {
			t.Errorf("%s: seed 1 twice gave %+v and %+v", w, a, b)
		}
		if a.Graph == c.Graph || a.Queries == c.Queries {
			t.Errorf("%s: seeds 1 and 2 gave the same graph or queries: %+v", w, a)
		}
	}
}

// hash is where the correctness check gets its negatives: an engine
// answering always true (or always false) must fail it.
func TestHashHasTwoSidedAnswers(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		id := inputsAndIdentity(t, "hash", seed)
		if id.TrueShare < 0.3 || id.TrueShare > 0.7 {
			t.Errorf("seed %d: true share %.3f, want a two-sided mix", seed, id.TrueShare)
		}
	}
}

func TestOracle(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 1)
	b.AddEdge(3, 0)
	o := newBFS(b.Build())
	for _, c := range []struct {
		S, T []graph.VertexID
		want bool
	}{
		{[]graph.VertexID{0}, []graph.VertexID{2}, true},
		{[]graph.VertexID{2}, []graph.VertexID{0}, false},
		{[]graph.VertexID{4}, []graph.VertexID{4}, true},
		{[]graph.VertexID{1, 4}, []graph.VertexID{3, 0}, false},
		{[]graph.VertexID{4, 3}, []graph.VertexID{2}, true},
		{[]graph.VertexID{9}, []graph.VertexID{9}, false},
		{nil, []graph.VertexID{1}, false},
	} {
		if got := o.reach(c.S, c.T); got != c.want {
			t.Errorf("reach(%v, %v) = %v, want %v", c.S, c.T, got, c.want)
		}
	}
}

// pairedRatio sums each group of pairs before dividing, and the
// interquartile mean drops one stalled and one lucky group of six.
func TestPairedRatio(t *testing.T) {
	num := []float64{1, 3, 4, 4, 4, 4, 4, 4, 4, 4, 50, 50}
	den := []float64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}
	// Group ratios: 1, 2, 2, 2, 2, 25; the middle half is 2, 2, 2, 2.
	if got := pairedRatio(num, den, 2); got != 2 {
		t.Errorf("pairedRatio = %v, want 2", got)
	}
	// Too few pairs for one group: the ratio of the sums.
	if got := pairedRatio(num[:3], den[:3], 4); got != 8.0/6 {
		t.Errorf("short pairedRatio = %v, want %v", got, 8.0/6)
	}
}

// declared reads the metric names BENCHMARK.json declares for key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func reported(r result) []string {
	var names []string
	for name, m := range r.Metrics {
		names = append(names, name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: reported %d metrics, BENCHMARK.json declares %d\ngot  %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: reported %q, BENCHMARK.json declares %q", what, got[i], want[i])
		}
	}
}

// A short run of each mode must answer correctly, report exactly the
// declared metrics, and (traced) pass its own consistency checks: the
// traced parts of every engine call cover the call, and the replayed
// shard searches return exactly what the live shards returned.
func TestRunsReportDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	for _, traced := range []bool{false, true} {
		out, err := run("hash", 1, 4*time.Second, traced, spans)
		if err != nil {
			t.Fatal(err)
		}
		r := out.result
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d", traced, r.Correct, r.Attempted, r.Failed)
		}
		if !traced {
			sameNames(t, "untraced", reported(r), declared(t, "end_to_end"))
			continue
		}
		sameNames(t, "traced", reported(r), declared(t, "per_layer"))
		if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
			t.Fatalf("span file: %v", err)
		}
	}
}

// checkCalls must reject a trace whose parts do not add up to its
// engine calls, and sameResults any difference the coordinator would
// read.
func TestTraceChecksCatchInconsistency(t *testing.T) {
	mk := func(submit0, reply3 int64) *recorder {
		rec := newRecorder()
		rec.calls = []call{{phase: phaseBatch, start: 100, end: 1000, nq: 1, first: -1, last: -1}}
		rd := round{first: 200, last: 900, call: -1}
		for p := 0; p < numParts; p++ {
			rd.submit[p], rd.reply[p] = 200+int64(p), 800+int64(p)
		}
		rd.submit[0], rd.reply[3] = submit0, reply3
		rd.first, rd.last = submit0, reply3
		rec.rounds = []round{rd}
		rec.match()
		return rec
	}
	if err := checkCalls(mk(200, 900), phaseBatch); err != nil {
		t.Fatalf("consistent trace rejected: %v", err)
	}
	// A round that ends after its call cannot be attributed to it, so
	// the call's time goes uncovered.
	if err := checkCalls(mk(200, 1100), phaseBatch); err == nil {
		t.Fatal("round outside its call accepted")
	}

	a := []wire.Result{{Kind: wire.Forward, Query: 1, Owned: 2, Hit: true, Boundary: []uint32{5, 7}}}
	for name, mutate := range map[string]func(*wire.Result){
		"owned":    func(r *wire.Result) { r.Owned++ },
		"hit":      func(r *wire.Result) { r.Hit = false },
		"boundary": func(r *wire.Result) { r.Boundary = []uint32{7, 5} },
		"query":    func(r *wire.Result) { r.Query = 0 },
	} {
		b := copyResults(a)
		mutate(&b[0])
		if sameResults(a, b) {
			t.Errorf("results differing in %s compared equal", name)
		}
	}
	if !sameResults(a, copyResults(a)) {
		t.Error("a copy compared unequal")
	}
}
