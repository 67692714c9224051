package dist

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"parlog/internal/dist/fault"
	"parlog/internal/obs"
)

// TestCheckpointTruncatesLog: with the count trigger armed and no faults,
// the coordinator must accept checkpoints, truncate the covered log
// prefixes, and still compute the exact least model.
func TestCheckpointTruncatesLog(t *testing.T) {
	src := ancestorRules + randomParFacts(40, 120, 11)
	p, edb, seq := buildAncestorQ(t, src, 3, []string{"Z"}, []string{"X"})

	cs := obs.NewCounting()
	res, err := Run(p, edb, Config{CheckpointEvery: 4, Sink: cs})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatal("checkpointed run differs from sequential least model")
	}
	if res.Checkpoints == 0 {
		t.Error("no checkpoints accepted with CheckpointEvery=4")
	}
	if res.TruncatedBatches == 0 {
		t.Error("no logged batches truncated despite accepted checkpoints")
	}
	m := cs.Snapshot()
	if m.Checkpoints != int64(res.Checkpoints) {
		t.Errorf("sink counted %d checkpoints, result says %d", m.Checkpoints, res.Checkpoints)
	}
	if m.TruncatedBatches != res.TruncatedBatches {
		t.Errorf("sink counted %d truncated batches, result says %d", m.TruncatedBatches, res.TruncatedBatches)
	}
}

// TestCheckpointRecoveryReplaysSuffix is the headline bounded-recovery
// scenario: checkpoints run throughout, then a worker is killed after at
// least two checkpoint cycles have completed. Recovery must install the
// dead bucket's checkpoint and replay strictly fewer batches than the
// bucket's full history — and still produce the exact least model.
func TestCheckpointRecoveryReplaysSuffix(t *testing.T) {
	src := ancestorRules + randomParFacts(40, 120, 5)
	p, edb, seq := buildAncestorQ(t, src, 3, []string{"Z"}, []string{"X"})

	// Same seed-5 workload as the non-checkpointed recovery test, but the
	// kill waits until the small CheckpointEvery has completed two
	// request/reply cycles for worker 1's bucket.
	dial, in := injectorDial(1, fault.Schedule{Seed: 5, KillConn: 1})
	rec := obs.NewRecorder()
	res, err := Run(p, edb, Config{CheckpointEvery: 2, CheckpointFault: armOnCheckpoint(in, 1, 2), WorkerDial: dial, Sink: rec})
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
	if res.Checkpoints < 2 {
		t.Fatalf("only %d checkpoints accepted before the kill, want >= 2 cycles", res.Checkpoints)
	}
	if len(res.Recoveries) != 1 {
		t.Fatalf("Recoveries = %v, want exactly one", res.Recoveries)
	}
	r := res.Recoveries[0]
	full := r.Replayed + r.Truncated
	if r.Truncated == 0 {
		t.Errorf("recovery replayed the full history (%d batches); checkpoint truncated nothing", full)
	}
	if r.Replayed >= full {
		t.Errorf("Replayed = %d, want strictly less than the %d-batch full history", r.Replayed, full)
	}
	// The event stream narrates checkpoint, truncation and recovery.
	kinds := map[string]int{}
	for _, e := range rec.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []string{
		obs.KindCheckpointStart, obs.KindCheckpointEnd, obs.KindLogTruncated,
		obs.KindWorkerDead, obs.KindBucketReassigned, obs.KindReplayEnd,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %s event recorded", k)
		}
	}
}

// TestCheckpointFaults: dropped and corrupted checkpoint replies must be
// rejected without truncating anything, later intact replies must still be
// accepted, and the run must stay exact. The fault plan is message-level
// and deterministic: the 1st reply is dropped, the 2nd corrupted.
func TestCheckpointFaults(t *testing.T) {
	src := ancestorRules + randomParFacts(40, 120, 13)
	p, edb, seq := buildAncestorQ(t, src, 3, []string{"Z"}, []string{"X"})

	plan := fault.NewCheckpointPlan([]int{1}, []int{2})
	cs := obs.NewCounting()
	res, err := Run(p, edb, Config{
		CheckpointEvery: 2,
		CheckpointFault: func(bucket, ckpt int) int { return plan.Next() },
		Sink:            cs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatal("run with faulty checkpoint replies differs from sequential least model")
	}
	if plan.Seen() < 3 {
		t.Fatalf("only %d checkpoint replies seen, want the two faulty ones plus at least one clean", plan.Seen())
	}
	m := cs.Snapshot()
	if m.CheckpointsRejected != 2 {
		t.Errorf("CheckpointsRejected = %d, want exactly the dropped and the corrupted reply", m.CheckpointsRejected)
	}
	if res.Checkpoints == 0 {
		t.Error("no clean checkpoint was accepted after the faulty ones")
	}
}

// armOnRequest is a Recorder that arms in at the coordinator's n-th
// checkpoint request for bucket. The count trigger requests at a barrier,
// and only for a bucket that the step just ended routed batches to, so
// the run has a next step. The owner answers in that step's turn, after
// its data batches, so its next write — the kill — comes before the reply.
type armOnRequest struct {
	*obs.Recorder
	in        *fault.Injector
	bucket, n int
	seen      atomic.Int32
}

func (s *armOnRequest) CheckpointStart(bucket, proc int) {
	s.Recorder.CheckpointStart(bucket, proc)
	if bucket == s.bucket && int(s.seen.Add(1)) >= s.n {
		s.in.Arm()
	}
}

// TestCheckpointKillDuringCheckpointing kills a worker while a checkpoint
// request for its bucket is outstanding: the pending request to a dead
// owner must resolve safely and the recovery must stay exact.
func TestCheckpointKillDuringCheckpointing(t *testing.T) {
	src := ancestorRules + randomParFacts(40, 120, 6)
	p, edb, seq := buildAncestorQ(t, src, 3, []string{"Z"}, []string{"X"})

	// The second request for bucket 1 arms the kill, so one checkpoint
	// has truncated the bucket's log before it dies.
	dial, in := injectorDial(1, fault.Schedule{Seed: 6, KillConn: 1})
	sink := &armOnRequest{Recorder: obs.NewRecorder(), in: in, bucket: 1, n: 2}
	res, err := Run(p, edb, Config{CheckpointEvery: 2, WorkerDial: dial, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatal("kill-during-checkpoint run differs from sequential least model")
	}
	if len(res.Deaths) != 1 {
		t.Fatalf("Deaths = %v, want one", res.Deaths)
	}
	// The coordinator emits these events under one mutex, so the
	// recorder's order is the order it saw them in.
	outstanding := 0
	for _, e := range sink.Events() {
		switch {
		case e.Kind == obs.KindCheckpointStart && e.Bucket == 1:
			outstanding++
		case e.Kind == obs.KindCheckpointEnd && e.Bucket == 1:
			outstanding--
		case e.Kind == obs.KindWorkerDead:
			if outstanding == 0 {
				t.Fatal("worker 1 died with no checkpoint request outstanding for its bucket")
			}
			return
		}
	}
	t.Fatal("no WorkerDead event recorded")
}

// TestCheckpointEquivalenceLockstep is the golden equivalence check: the
// Example 3 transitive closure evaluated undisturbed, and again through a
// checkpoint+kill+replay recovery, must render byte-identical sorted
// output.
func TestCheckpointEquivalenceLockstep(t *testing.T) {
	src := ancestorRules + randomParFacts(40, 120, 5)

	render := func(res *Result) string {
		return fmt.Sprintf("%v", res.Output["anc"].SortedRows())
	}

	p, edb, _ := buildAncestorQ(t, src, 3, []string{"Z"}, []string{"X"})
	plain, err := Run(p, edb, Config{})
	if err != nil {
		t.Fatal(err)
	}

	p2, edb2, _ := buildAncestorQ(t, src, 3, []string{"Z"}, []string{"X"})
	dial, in := injectorDial(1, fault.Schedule{Seed: 5, KillConn: 1})
	recovered, err := Run(p2, edb2, Config{CheckpointEvery: 2, CheckpointFault: armOnCheckpoint(in, 1, 2), WorkerDial: dial})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered.Deaths) != 1 {
		t.Fatalf("Deaths = %v, want the scheduled kill", recovered.Deaths)
	}

	a, b := render(plain), render(recovered)
	if a != b {
		t.Fatalf("recovered-from-checkpoint output is not byte-identical to the undisturbed run:\nplain     %s\nrecovered %s", a, b)
	}
}

// TestMemoryBudgetForcesCheckpoints: a budget big enough to finish but
// smaller than the run's natural log footprint must trigger memory
// pressure, force early checkpoints, and still complete exactly.
func TestMemoryBudgetForcesCheckpoints(t *testing.T) {
	src := ancestorRules + randomParFacts(60, 180, 16)
	p, edb, seq := buildAncestorQ(t, src, 3, []string{"Z"}, []string{"X"})

	// No checkpoint triggers configured: every checkpoint must come from
	// the pressure path.
	natural, err := Run(p, edb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if natural.Checkpoints != 0 {
		t.Fatalf("baseline run checkpointed %d times with no triggers armed", natural.Checkpoints)
	}

	p2, edb2, _ := buildAncestorQ(t, src, 3, []string{"Z"}, []string{"X"})
	cs := obs.NewCounting()
	// Slow the workers slightly, as a congested link would.
	in := fault.New(fault.Schedule{Delay: 200 * time.Microsecond})
	// The budget sits between this workload's irreducible checkpoint
	// footprint (~12KB of wire-encoded condensed state, measured) and its
	// unchecked log footprint (~22KB, measured), so pressure
	// must fire and forced truncation must be what keeps the run inside it.
	res, err := Run(p2, edb2, Config{
		MaxMemoryBytes: 16 * 1024,
		WorkerDial:     func(wi int) DialFunc { return in.Dial },
		Sink:           cs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatal("pressure-checkpointed run differs from sequential least model")
	}
	m := cs.Snapshot()
	if m.MemoryPressureEvents == 0 {
		t.Fatal("no MemoryPressure events: the budget was never hit, pick a smaller one")
	}
	if res.Checkpoints == 0 {
		t.Error("memory pressure forced no checkpoints")
	}
	if res.TruncatedBatches == 0 {
		t.Error("memory pressure reclaimed no log space")
	}
}

// TestMemoryBudgetExhausted: a budget smaller than even the checkpointed
// state must fail fast with ErrResourceExhausted instead of running on.
func TestMemoryBudgetExhausted(t *testing.T) {
	src := ancestorRules + randomParFacts(60, 180, 17)
	p, edb, _ := buildAncestorQ(t, src, 3, []string{"Z"}, []string{"X"})

	in := fault.New(fault.Schedule{Delay: 200 * time.Microsecond})
	_, err := Run(p, edb, Config{
		MaxMemoryBytes: 512,
		WorkerDial:     func(wi int) DialFunc { return in.Dial },
	})
	if err == nil {
		t.Fatal("run stayed over a 512-byte budget and still reported success")
	}
	if !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("err = %v, want ErrResourceExhausted", err)
	}
}

// TestRouterReportsDroppedBatches: a data batch addressed to an
// out-of-range bucket must be counted and reported through the sink, not
// silently discarded.
func TestRouterReportsDroppedBatches(t *testing.T) {
	cfg := &Config{}
	cfg.fill()
	rec := obs.NewRecorder()
	cfg.Sink = rec
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	ws := []*wkState{
		{index: 0, conn: c1, out: newQueue(), alive: true},
		{index: 1, conn: c2, out: newQueue(), alive: true},
	}
	r := newRouter(cfg, ws)

	if err := r.handle(ws[0], wireMsg{Kind: kindData, Bucket: 7, From: 0, Pred: "anc", Raw: nil}); err != nil {
		t.Fatalf("a batch for a corrupt bucket broke its sender's connection: %v", err)
	}

	if r.dropped != 1 {
		t.Fatalf("dropped = %d, want 1", r.dropped)
	}
	if r.moved != 0 {
		t.Errorf("moved = %d, want 0 (a dropped batch reaches no bucket, so it cannot extend the run)", r.moved)
	}
	found := false
	for _, e := range rec.Events() {
		if e.Kind == obs.KindBatchDropped && e.Bucket == 7 {
			found = true
		}
	}
	if !found {
		t.Error("no BatchDropped event recorded")
	}
}
