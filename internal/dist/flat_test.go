package dist

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"parlog/internal/dist/fault"
	"parlog/internal/hashpart"
	"parlog/internal/parallel"
	"parlog/internal/parser"
	"parlog/internal/relation"
	"parlog/internal/rewrite"
	"parlog/internal/seminaive"
)

// flatEdgeProgram compiles, for n processors, a general-scheme program with
// the two batch shapes a flat value run must still carry: reach has arity 1
// and one point-to-point router (so Pool concatenates it), and found has
// arity 0 and is broadcast, so its batches hold no values at all and only
// their count says a tuple is in them. It returns the program and the
// sequential least model.
func flatEdgeProgram(t *testing.T, n int) (*parallel.Program, relation.Store) {
	t.Helper()
	var src strings.Builder
	src.WriteString(`
reach(X) :- start(X).
reach(Y) :- reach(X), e(X, Y).
found :- reach(X), goal(X).
alarm(Y) :- found, node(Y).
start(v0). goal(v7). goal(v40).
`)
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&src, "e(v%d, v%d).\n", i, i+1)
		if i%5 == 0 {
			fmt.Fprintf(&src, "node(v%d).\n", i)
		}
	}
	prog := parser.MustParse(src.String())
	seq, _, err := seminaive.Eval(prog, relation.Store{}, seminaive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seq["found"].Len() != 1 || seq["alarm"].Len() != 12 {
		t.Fatalf("least model has %d found and %d alarm tuples, want 1 and 12", seq["found"].Len(), seq["alarm"].Len())
	}
	h := hashpart.ModHash{N: n}
	x := []string{"X"}
	p, err := parallel.BuildGeneral(prog, rewrite.GeneralSpec{
		Procs: hashpart.RangeProcs(n),
		Rules: []rewrite.RuleSpec{{Seq: x, H: h}, {Seq: x, H: h}, {Seq: x, H: h}, {Seq: []string{"Y"}, H: h}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, seq
}

// counters are the per-processor counters every schedule of a run agrees
// on; DupReceived and Iterations depend on arrival order.
func counters(ps parallel.ProcStats) [5]int64 {
	return [5]int64{ps.Firings, ps.Generated, ps.DupFirings, ps.TuplesSent, ps.TuplesReceived}
}

func checkModel(t *testing.T, name string, want, got relation.Store) {
	t.Helper()
	for _, pred := range []string{"reach", "found", "alarm"} {
		if !want[pred].Equal(got[pred]) {
			t.Errorf("%s: %s = %v, want %v", name, pred, got[pred], want[pred])
		}
	}
}

// TestFlatBatchEdgeCases runs zero-arity and arity-1 derived predicates
// through Run and RunLockstep (with and without ChaosDuplicate) and through
// the TCP runtime, plainly and with a bucket recovered from a checkpoint
// whose snapshot holds the zero-arity tuple. Every run must compute the
// least model; Run and RunLockstep must agree on every counter but Busy,
// and the TCP runtime on every schedule-independent one. Duplicated
// delivery doubles exactly the traffic counters.
func TestFlatBatchEdgeCases(t *testing.T) {
	p, seq := flatEdgeProgram(t, 2)
	var ref *parallel.Result
	for _, chaos := range []bool{false, true} {
		cfg := parallel.RunConfig{ChaosDuplicate: chaos}
		lock, err := parallel.RunLockstep(p, relation.Store{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		run, err := parallel.Run(p, relation.Store{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("chaos=%v", chaos)
		checkModel(t, name+" lockstep", seq, lock.Output)
		checkModel(t, name+" run", seq, run.Output)
		for i, a := range run.Stats.Procs {
			b := lock.Stats.Procs[i]
			a.Busy, b.Busy = 0, 0
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s proc %d: Run %+v, RunLockstep %+v", name, a.Proc, a, b)
			}
		}
		if !chaos {
			ref = lock
			continue
		}
		for i, a := range lock.Stats.Procs {
			want := counters(ref.Stats.Procs[i])
			want[3], want[4] = 2*want[3], 2*want[4]
			if got := counters(a); got != want {
				t.Errorf("chaos proc %d: counters %v, want %v", a.Proc, got, want)
			}
		}
	}
	var sent int64
	for _, ps := range ref.Stats.Procs {
		sent += ps.TuplesSent
	}
	if sent == 0 {
		t.Fatal("no tuple crossed a channel")
	}

	plain, err := Run(p, relation.Store{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkModel(t, "dist", seq, plain.Output)
	for i, a := range plain.Stats {
		if got, want := counters(a), counters(ref.Stats.Procs[i]); got != want {
			t.Errorf("dist proc %d: counters %v, in-process %v", a.Proc, got, want)
		}
	}

	// Kill worker 1 at its bucket's second checkpoint reply: the survivor
	// adopts the bucket and replays its last checkpoint through Accept.
	dial, in := injectorDial(1, fault.Schedule{Seed: 5, KillConn: 1})
	recovered, err := Run(p, relation.Store{}, Config{CheckpointEvery: 2, CheckpointFault: armOnCheckpoint(in, 1, 2), WorkerDial: dial})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered.Deaths) != 1 || recovered.Checkpoints == 0 {
		t.Fatalf("Deaths = %v after %d checkpoints, want the scheduled kill after a checkpoint", recovered.Deaths, recovered.Checkpoints)
	}
	checkModel(t, "dist recovered", seq, recovered.Output)
}
