package shard

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsr/internal/wire"
)

// gatedReplica blocks every Submit until the gate is released — a
// deterministic "slow replica" for hedging tests.
type gatedReplica struct {
	inner   Replica
	gate    chan struct{}
	submits atomic.Int32
}

func (g *gatedReplica) Submit(h wire.BatchHeader, tasks []wire.Task, replyc chan<- Reply) {
	g.submits.Add(1)
	<-g.gate
	g.inner.Submit(h, tasks, replyc)
}

func (g *gatedReplica) Summary(ctx context.Context) (wire.Summary, error) {
	return g.inner.Summary(ctx)
}
func (g *gatedReplica) Hello() wire.Hello { return g.inner.Hello() }
func (g *gatedReplica) Close() error      { return g.inner.Close() }

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubmitHedgeGoesToIdleSibling: with the primary submit stuck on a
// slow replica, a hedge is answered — correctly — by the idle sibling,
// and the slow primary still delivers once released (the caller drains
// both).
func TestSubmitHedgeGoesToIdleSibling(t *testing.T) {
	shardsA, _ := chainFixture(t)
	shardsB, _ := chainFixture(t)
	slow := &gatedReplica{inner: NewLocalReplica(shardsA[0]), gate: make(chan struct{})}
	groups := [][]ReplicaDialer{{
		func(ctx context.Context) (Replica, error) { return slow, nil },
		func(ctx context.Context) (Replica, error) { return NewLocalReplica(shardsB[0]), nil },
	}}
	tr, err := NewReplicated(t.Context(), groups, ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	tasks := []wire.Task{{Kind: wire.Forward, Query: 1, Seeds: []int32{0}}}
	replyc := make(chan Reply, 2)
	tr.Submit(0, wire.BatchHeader{}, tasks, replyc)
	waitFor(t, "primary submit to reach the slow replica", func() bool { return slow.submits.Load() == 1 })

	hedgec := make(chan Reply, 1)
	tr.SubmitHedge(0, wire.BatchHeader{}, tasks, hedgec)
	select {
	case rep := <-hedgec:
		if rep.Err != nil {
			t.Fatalf("hedge did not reach the idle sibling: %v", rep.Err)
		}
		if rep.Shard != 0 || len(rep.Results) != 1 || !slices.Equal(rep.Results[0].Boundary, []uint32{1}) {
			t.Fatalf("hedge answered wrong: %+v", rep)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hedge reply never arrived while primary was stuck")
	}

	close(slow.gate)
	select {
	case rep := <-replyc:
		if rep.Err != nil || len(rep.Results) != 1 || !slices.Equal(rep.Results[0].Boundary, []uint32{1}) {
			t.Fatalf("released primary answered wrong: %+v", rep)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("primary reply never arrived after release")
	}
	if got := slow.submits.Load(); got != 1 {
		t.Fatalf("slow replica served %d submits, want 1 (hedge must not queue behind it)", got)
	}
}

// TestSubmitHedgeNoIdleSibling: a hedge fails fast with
// ErrNoIdleSibling when the partition's only replica is already
// serving the primary, and never redials dead siblings.
func TestSubmitHedgeNoIdleSibling(t *testing.T) {
	shards, _ := chainFixture(t)
	slow := &gatedReplica{inner: NewLocalReplica(shards[0]), gate: make(chan struct{})}
	dials := atomic.Int32{}
	groups := [][]ReplicaDialer{{
		func(ctx context.Context) (Replica, error) { return slow, nil },
		func(ctx context.Context) (Replica, error) {
			// A dead sibling: fails at construction and on every redial.
			dials.Add(1)
			return nil, errors.New("endpoint down")
		},
	}}
	tr, err := NewReplicated(t.Context(), groups, ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	dialsAtStart := dials.Load()

	tasks := []wire.Task{{Kind: wire.Forward, Query: 1, Seeds: []int32{0}}}
	replyc := make(chan Reply, 1)
	tr.Submit(0, wire.BatchHeader{}, tasks, replyc)
	waitFor(t, "primary submit to reach the slow replica", func() bool { return slow.submits.Load() == 1 })

	hedgec := make(chan Reply, 1)
	tr.SubmitHedge(0, wire.BatchHeader{}, tasks, hedgec)
	rep := <-hedgec
	if !errors.Is(rep.Err, ErrNoIdleSibling) {
		t.Fatalf("hedge error = %v, want ErrNoIdleSibling", rep.Err)
	}
	if dials.Load() != dialsAtStart {
		t.Fatal("hedge redialed a dead sibling; hedges must not dial")
	}

	close(slow.gate)
	if rep := <-replyc; rep.Err != nil {
		t.Fatalf("primary: %v", rep.Err)
	}

	tr.Close()
	tr.SubmitHedge(0, wire.BatchHeader{}, tasks, hedgec)
	if rep := <-hedgec; !errors.Is(rep.Err, ErrClosed) {
		t.Fatalf("hedge on closed transport = %v, want ErrClosed", rep.Err)
	}
}

// TestReplicatedReplyOwnsMemory: a Reply from a partition with sibling
// replicas must stay valid after further submits to the same partition
// — with hedging, two batches for one partition are in flight at once,
// so replies cannot alias replica decode buffers. The sibling is down,
// so both submits land on the same replica and the second overwrites
// its arena with a different boundary list.
func TestReplicatedReplyOwnsMemory(t *testing.T) {
	shards, _ := chainFixture(t)
	groups := [][]ReplicaDialer{{
		func(ctx context.Context) (Replica, error) { return NewLocalReplica(shards[1]), nil },
		func(ctx context.Context) (Replica, error) { return nil, errors.New("sibling down") },
	}}
	tr, err := NewReplicated(t.Context(), groups, ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	replyc := make(chan Reply, 1)
	// Partition {2,3}: forward from 2 reaches exit 3, backward from 3
	// reaches entry 2 — the same arena slot, different contents.
	tr.Submit(0, wire.BatchHeader{}, []wire.Task{{Kind: wire.Forward, Seeds: []int32{2}}}, replyc)
	first := <-replyc
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	tr.Submit(0, wire.BatchHeader{}, []wire.Task{{Kind: wire.Backward, Seeds: []int32{3}}}, replyc)
	second := <-replyc
	if second.Err != nil || !slices.Equal(second.Results[0].Boundary, []uint32{2}) {
		t.Fatalf("second reply = %+v / %v, want boundary [2]", second.Results, second.Err)
	}
	if len(first.Results) != 1 || !slices.Equal(first.Results[0].Boundary, []uint32{3}) {
		t.Fatalf("first reply mutated by a later submit: %+v", first.Results)
	}
}

// TestSubmitHedgeSoleReplica: on a partition with one replica,
// SubmitHedge answers ErrNoIdleSibling at once, even while a primary
// submit that went straight to the replica is still in flight — and
// never touches that replica.
func TestSubmitHedgeSoleReplica(t *testing.T) {
	shards, _ := chainFixture(t)
	slow := &gatedReplica{inner: NewLocalReplica(shards[0]), gate: make(chan struct{})}
	groups := [][]ReplicaDialer{{func(ctx context.Context) (Replica, error) { return slow, nil }}}
	tr, err := NewReplicated(t.Context(), groups, ReplicatedOptions{ReconnectEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var once sync.Once
	release := func() { once.Do(func() { close(slow.gate) }) }
	defer release() // before Close, so a failing test cannot hang on the gate

	task := []wire.Task{{Kind: wire.Forward, Query: 0, Seeds: []int32{0}}}
	replyc := make(chan Reply, 1)
	go tr.Submit(0, wire.BatchHeader{}, task, replyc)
	waitFor(t, "primary in flight", func() bool { return slow.submits.Load() == 1 })

	hedgec := make(chan Reply, 1)
	tr.SubmitHedge(0, wire.BatchHeader{}, task, hedgec)
	select {
	case rep := <-hedgec:
		if !errors.Is(rep.Err, ErrNoIdleSibling) || rep.Shard != 0 {
			t.Fatalf("hedge on a sole replica = %+v, want ErrNoIdleSibling for partition 0", rep)
		}
	default:
		t.Fatal("SubmitHedge on a sole replica did not answer at once")
	}
	if n := slow.submits.Load(); n != 1 {
		t.Fatalf("sole replica saw %d submits, want only the primary", n)
	}

	release()
	if rep := <-replyc; rep.Err != nil || !slices.Equal(rep.Results[0].Boundary, []uint32{1}) {
		t.Fatalf("primary reply = %+v / %v", rep.Results, rep.Err)
	}
}
