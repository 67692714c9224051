package dist

import (
	"fmt"
	"reflect"
	"testing"

	"parlog/internal/analysis"
	"parlog/internal/hashpart"
	"parlog/internal/obs"
	"parlog/internal/parallel"
	"parlog/internal/randprog"
	"parlog/internal/relation"
	"parlog/internal/rewrite"
	"parlog/internal/workload"
)

// lockstepInput is one compiled program and its EDB.
type lockstepInput struct {
	name string
	p    *parallel.Program
	edb  relation.Store
}

// lockstepInputs compiles Examples 1, 2, 3 and 8 over random(30,60) and the
// 50 generated programs TestCountersGolden pins, all on three processors.
func lockstepInputs(t *testing.T) []lockstepInput {
	t.Helper()
	par := relation.Store{"par": workload.RandomGraph(30, 60, 3)}
	procs := hashpart.RangeProcs(3)
	h := hashpart.ModHash{N: 3}
	var ins []lockstepInput
	add := func(name string, edb relation.Store, p *parallel.Program, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ins = append(ins, lockstepInput{name, p, edb})
	}
	s, err := analysis.ExtractSirup(workload.AncestorProgram())
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range []struct {
		name   string
		vr, ve []string
	}{
		{"example1", []string{"Y"}, []string{"Y"}},
		{"example2", []string{"X", "Z"}, []string{"X", "Y"}},
		{"example3", []string{"Z"}, []string{"X"}},
	} {
		p, err := parallel.BuildQ(s, rewrite.SirupSpec{Procs: procs, VR: ex.vr, VE: ex.ve, H: h})
		add(ex.name, par, p, err)
	}
	p, err := parallel.BuildGeneral(workload.NonlinearAncestorProgram(), rewrite.GeneralSpec{
		Procs: procs,
		Rules: []rewrite.RuleSpec{{Seq: []string{"Y"}, H: h}, {Seq: []string{"Z"}, H: h}},
	})
	add("example8", par, p, err)
	for seed := int64(0); seed < 50; seed++ {
		g := randprog.Generate(randprog.Config{}, seed)
		p, err := parallel.BuildGeneral(g.Prog, randprogSpec(t, g, 3, seed))
		add(fmt.Sprintf("seed%d", seed), g.EDB, p, err)
	}
	return ins
}

// randprogSpec is the general scheme the randprog differentials run a
// generated program under on n processors: each rule discriminates on the
// first variable of its first recursive atom, else of its body.
func randprogSpec(t *testing.T, g *randprog.Program, n int, seed int64) rewrite.GeneralSpec {
	t.Helper()
	spec := rewrite.GeneralSpec{Procs: hashpart.RangeProcs(n)}
	h := hashpart.ModHash{N: n, Seed: uint64(seed)}
	rules, _ := g.Prog.FactTuples()
	for _, r := range rules {
		vars := r.BodyVars()
		if recs := analysis.RecursiveAtoms(g.Prog, r); len(recs) > 0 {
			if v := r.Body[recs[0]].Vars(nil); len(v) > 0 {
				vars = v
			}
		}
		if len(vars) == 0 {
			t.Fatalf("seed %d: rule without body variables", seed)
		}
		spec.Rules = append(spec.Rules, rewrite.RuleSpec{Seq: vars[:1], H: h})
	}
	return spec
}

// stepProbes returns the number of every superstep probe a run emitted,
// failing on any other termination probe.
func stepProbes(t *testing.T, name string, rec *obs.Recorder) []int {
	t.Helper()
	var steps []int
	for _, e := range rec.Events() {
		if e.Kind != obs.KindProbe {
			continue
		}
		if e.Detector != "superstep" || !e.Quiesced {
			t.Fatalf("%s: termination probe %+v, want only superstep probes", name, e)
		}
		steps = append(steps, e.Iter)
	}
	return steps
}

// TestDistMatchesLockstep: a dist worker takes the in-process engine's
// turns, so with no fault dist.Run must return RunLockstep's model and,
// bucket by bucket, every counter but Busy — firings, generated and
// duplicate firings, iterations, tuples sent and received, duplicates
// received and the per-edge sends — and end after as many supersteps,
// reported by one superstep probe.
func TestDistMatchesLockstep(t *testing.T) {
	for _, in := range lockstepInputs(t) {
		lockRec, distRec := obs.NewRecorder(), obs.NewRecorder()
		lock, err := parallel.RunLockstep(in.p, in.edb, parallel.RunConfig{Sink: lockRec})
		if err != nil {
			t.Fatalf("%s: RunLockstep: %v", in.name, err)
		}
		res, err := Run(in.p, in.edb, Config{Sink: distRec})
		if err != nil {
			t.Fatalf("%s: dist.Run: %v", in.name, err)
		}
		for pred := range in.p.IDB {
			if !lock.Output[pred].Equal(res.Output[pred]) {
				t.Fatalf("%s: %s differs from the lockstep model", in.name, pred)
			}
		}
		if len(res.Stats) != len(lock.Stats.Procs) {
			t.Fatalf("%s: stats for %d buckets, lockstep has %d", in.name, len(res.Stats), len(lock.Stats.Procs))
		}
		for i, want := range lock.Stats.Procs {
			got := res.Stats[i]
			got.Busy, want.Busy = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: processor %d counters differ from lockstep:\n dist %+v\n lock %+v", in.name, want.Proc, got, want)
			}
		}
		want := stepProbes(t, in.name, lockRec)
		if got := stepProbes(t, in.name, distRec); len(got) != 1 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: superstep probes %v, lockstep %v", in.name, got, want)
		}
	}
}
