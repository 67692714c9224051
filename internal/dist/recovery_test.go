package dist

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"parlog/internal/dist/fault"
	"parlog/internal/obs"
	"parlog/internal/parallel"
	"parlog/internal/relation"
)

// injectorDial returns a WorkerDial hook that puts sched under the given
// worker's connection and leaves the others on the real stack.
func injectorDial(target int, sched fault.Schedule) (func(wi int) DialFunc, *fault.Injector) {
	in := fault.New(sched)
	return func(wi int) DialFunc {
		if wi == target {
			return in.Dial
		}
		return nil
	}, in
}

// armOnRoute returns a RouteFault hook that routes every batch unchanged
// and arms in once the coordinator has routed n batches to bucket. A batch
// routed to the bucket in step k is input to its owner's turn in step k+1,
// and a worker with input in a step must still write that step's
// stepDone, so the kill lands at the latest on that write, before the
// barrier of step k+1 — never after the run's last step. The bucket's log
// then holds data, so the recovery has batches to replay.
func armOnRoute(in *fault.Injector, bucket, n int) func(from, b int) int {
	var seen atomic.Int32
	return func(_, b int) int {
		if b == bucket && int(seen.Add(1)) >= n {
			in.Arm()
		}
		return b
	}
}

// armOnCheckpoint returns a CheckpointFault hook that passes every reply
// and arms in at the n-th reply for bucket, so the kill lands after
// checkpoints have truncated that bucket's log. The count trigger requests
// checkpoints at barriers, so without faults the n-th reply arrives in the
// same step k of every run, before barrier k. Every live worker writes a
// stepDone for every step, so if step k moves anything the kill lands at
// the latest on the victim's stepDone of step k+1.
func armOnCheckpoint(in *fault.Injector, bucket, n int) func(b, probe int) int {
	var seen atomic.Int32
	return func(b, _ int) int {
		if b == bucket && int(seen.Add(1)) >= n {
			in.Arm()
		}
		return fault.CkptPass
	}
}

// TestBucketRecoveryKillOneOfThree is the headline fault-tolerance
// scenario: three workers, one killed mid-run on a seeded schedule. The
// coordinator must declare the death, reassign the dead worker's bucket to
// a survivor, replay the bucket's message log, and still produce the exact
// least model.
func TestBucketRecoveryKillOneOfThree(t *testing.T) {
	src := ancestorRules + randomParFacts(40, 120, 5)
	p, edb, seq := buildAncestorQ(t, src, 3, []string{"Z"}, []string{"X"})

	// Kill worker 1's (only) connection once the coordinator has routed
	// data to its bucket: past the join handshake, with a log to replay,
	// and before the run's last step.
	dial, in := injectorDial(1, fault.Schedule{Seed: 5, KillConn: 1})
	rec := obs.NewRecorder()
	res, err := Run(p, edb, Config{WorkerDial: dial, RouteFault: armOnRoute(in, 1, 1), Sink: rec})
	if err != nil {
		t.Fatal(err)
	}

	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatalf("recovered run differs from sequential least model:\nseq %v\ndist %v",
			seq["anc"], res.Output["anc"])
	}
	if len(res.Deaths) != 1 || res.Deaths[0] != 1 {
		t.Fatalf("Deaths = %v, want [1]", res.Deaths)
	}
	if len(res.Recoveries) != 1 {
		t.Fatalf("Recoveries = %v, want exactly one", res.Recoveries)
	}
	r := res.Recoveries[0]
	if r.Bucket != 1 || r.FromWorker != 1 || r.ToWorker == 1 {
		t.Errorf("recovery moved bucket %d from %d to %d, want bucket 1 off worker 1", r.Bucket, r.FromWorker, r.ToWorker)
	}
	// Every bucket still reports stats: two survivors plus the adopted one.
	if len(res.Stats) != 3 {
		t.Errorf("stats for %d buckets, want 3", len(res.Stats))
	}
	// The event stream narrates the recovery.
	kinds := map[string]int{}
	for _, e := range rec.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []string{obs.KindWorkerDead, obs.KindBucketReassigned, obs.KindReplayStart, obs.KindReplayEnd} {
		if kinds[k] == 0 {
			t.Errorf("no %s event recorded", k)
		}
	}
}

// TestBucketRecoveryCascade kills two of three workers at different points;
// the lone survivor ends up hosting all three buckets.
func TestBucketRecoveryCascade(t *testing.T) {
	src := ancestorRules + randomParFacts(40, 120, 6)
	p, edb, seq := buildAncestorQ(t, src, 3, []string{"Z"}, []string{"X"})

	// Worker 1's kill is armed by the first batch routed to bucket 1, and
	// worker 2's by the first batch routed to bucket 2 after that.
	in1 := fault.New(fault.Schedule{Seed: 6, KillConn: 1})
	in2 := fault.New(fault.Schedule{Seed: 7, KillConn: 1})
	dial := func(wi int) DialFunc {
		switch wi {
		case 1:
			return in1.Dial
		case 2:
			return in2.Dial
		}
		return nil
	}
	var armed1 atomic.Bool
	route := func(_, b int) int {
		switch {
		case b == 1 && !armed1.Load():
			in1.Arm()
			armed1.Store(true)
		case b == 2 && armed1.Load():
			in2.Arm()
		}
		return b
	}
	res, err := Run(p, edb, Config{WorkerDial: dial, RouteFault: route})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatal("cascading recovery differs from sequential least model")
	}
	if len(res.Deaths) != 2 {
		t.Fatalf("Deaths = %v, want two", res.Deaths)
	}
	for _, r := range res.Recoveries {
		if r.ToWorker != 0 {
			t.Errorf("bucket %d recovered onto worker %d, want the survivor 0", r.Bucket, r.ToWorker)
		}
	}
	if len(res.Stats) != 3 {
		t.Errorf("stats for %d buckets, want 3", len(res.Stats))
	}
}

// TestWorkerConnectRetry: the first dial attempts fail on schedule; the
// backoff retry must still get every worker connected and the run must
// complete untouched.
func TestWorkerConnectRetry(t *testing.T) {
	src := ancestorRules + randomParFacts(12, 24, 7)
	p, edb, seq := buildAncestorQ(t, src, 3, []string{"Z"}, []string{"X"})

	ins := make([]*fault.Injector, 3)
	for i := range ins {
		ins[i] = fault.New(fault.Schedule{FailDials: 2})
	}
	dial := func(wi int) DialFunc { return ins[wi].Dial }
	res, err := Run(p, edb, Config{
		WorkerDial: dial,
		MaxRetries: 5,
		RetryBase:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatal("result differs after connect retries")
	}
	if len(res.Deaths) != 0 {
		t.Errorf("Deaths = %v, want none", res.Deaths)
	}
	for i, in := range ins {
		if in.Dials() != 3 {
			t.Errorf("worker %d dialed %d times, want 3 (two scheduled failures + one success)", i, in.Dials())
		}
	}
}

// TestDistributedCancelPromptReturn cancels the context mid-run and checks
// that Run returns promptly — well inside the worker deadline — with
// context.Canceled, and that the runtime's goroutines wind down.
func TestDistributedCancelPromptReturn(t *testing.T) {
	src := ancestorRules + randomParFacts(40, 120, 8)
	p, edb, _ := buildAncestorQ(t, src, 3, []string{"Z"}, []string{"X"})

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()

	// Slow every write down so the run is guaranteed to still be in
	// flight when the cancel lands.
	in := fault.New(fault.Schedule{Delay: 200 * time.Microsecond})
	deadline := 5 * time.Second
	start := time.Now()
	_, err := Run(p, edb, Config{
		Ctx:            ctx,
		WorkerDeadline: deadline,
		WorkerDial:     func(wi int) DialFunc { return in.Dial },
	})
	elapsed := time.Since(start)

	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed >= deadline {
		t.Errorf("cancelled run took %v, want well under the %v worker deadline", elapsed, deadline)
	}
	// The coordinator and worker goroutines must unwind; poll briefly
	// since TCP teardown is asynchronous.
	ok := false
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before+2 {
			ok = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !ok {
		t.Errorf("goroutines leaked after cancel: before=%d now=%d", before, runtime.NumGoroutine())
	}
}

// TestRecoveryMetrics: the Counting sink aggregates the fault events.
func TestRecoveryMetrics(t *testing.T) {
	src := ancestorRules + randomParFacts(40, 120, 9)
	p, edb, _ := buildAncestorQ(t, src, 3, []string{"Z"}, []string{"X"})

	dial, in := injectorDial(1, fault.Schedule{Seed: 9, KillConn: 1})
	cs := obs.NewCounting()
	res, err := Run(p, edb, Config{WorkerDial: dial, RouteFault: armOnRoute(in, 1, 1), Sink: cs})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deaths) != 1 {
		t.Fatalf("Deaths = %v, want one", res.Deaths)
	}
	m := cs.Snapshot()
	if m.WorkerDeaths != 1 {
		t.Errorf("WorkerDeaths = %d, want 1", m.WorkerDeaths)
	}
	if m.BucketsReassigned != 1 {
		t.Errorf("BucketsReassigned = %d, want 1", m.BucketsReassigned)
	}
	if int(m.ReplayedMessages) != res.Recoveries[0].Replayed {
		t.Errorf("ReplayedMessages = %d, want %d", m.ReplayedMessages, res.Recoveries[0].Replayed)
	}
}

// TestRunWorkerCancel: a worker whose context is cancelled returns promptly
// even while blocked waiting for work.
func TestRunWorkerCancel(t *testing.T) {
	src := ancestorRules + randomParFacts(10, 20, 10)
	p, _, _ := buildAncestorQ(t, src, 2, []string{"Z"}, []string{"X"})
	global, err := parallel.PrepareEDB(p, relation.Store{})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(Config{Workers: 2, Timeout: 10 * time.Second}, p.IDB)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		node := parallel.NewNode(p, 0, global)
		done <- RunWorker(coord.Addr(), node, WorkerConfig{Ctx: ctx})
	}()
	// Worker 1 never joins, so the run can't start; the worker sits
	// blocked on the start message until the cancel.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) && err == nil {
			t.Errorf("want an error after cancel, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("worker did not return after cancel")
	}
}
