package parallel

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"parlog/internal/hashpart"
	"parlog/internal/obs"
	"parlog/internal/parser"
	"parlog/internal/relation"
	"parlog/internal/rewrite"
)

// goldenProgram compiles the two-processor Example 3 scheme (v(r)=⟨Z⟩,
// v(e)=⟨X⟩) over a four-edge par chain — small enough that its full event
// stream is reviewable by hand.
func goldenProgram(t *testing.T) *Program {
	t.Helper()
	prog := parser.MustParse(ancestorRules + chainFacts(4))
	s := mustSirup(t, prog)
	p, err := BuildQ(s, rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(2),
		VR:    []string{"Z"}, VE: []string{"X"},
		H: hashpart.ModHash{N: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// goldenExample2 compiles Example 2's scheme on two processors: v(r) =
// ⟨X,Z⟩ is not inside anc(Z,Y), so every derived tuple is broadcast and
// its destinations mix the sender itself with its peer. h places both
// rules by X, alternating along the chain; the shortcut par(v0, v2) makes
// processor 0 derive anc(v0, v2) twice.
func goldenExample2(t *testing.T) *Program {
	t.Helper()
	prog := parser.MustParse(ancestorRules + chainFacts(4) + "par(v0, v2).\n")
	h := firstValue{}
	for i := 0; i <= 4; i++ {
		h[prog.Interner.Intern(fmt.Sprintf("v%d", i))] = i % 2
	}
	p, err := BuildQ(mustSirup(t, prog), rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(2),
		VR:    []string{"X", "Z"}, VE: []string{"X", "Y"},
		H: h,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// goldenGeneral compiles the Section 7 general scheme for the nonlinear
// ancestor program (Example 8: v = ⟨Y⟩ for the exit rule, ⟨Z⟩ for the
// recursive one) on two processors. Its two anc body occurrences give
// every tuple two routers, so a tuple may go to itself and to a peer.
func goldenGeneral(t *testing.T) *Program {
	t.Helper()
	prog := parser.MustParse(`
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), anc(Z, Y).
` + chainFacts(4))
	h := hashpart.ModHash{N: 2}
	p, err := BuildGeneral(prog, rewrite.GeneralSpec{
		Procs: hashpart.RangeProcs(2),
		Rules: []rewrite.RuleSpec{{Seq: []string{"Y"}, H: h}, {Seq: []string{"Z"}, H: h}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func lockstepTrace(t *testing.T, p *Program) []string {
	t.Helper()
	rec := obs.NewRecorder()
	res, err := RunLockstep(p, relation.Store{}, RunConfig{Sink: rec})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Output["anc"].Len(); got != 10 {
		t.Fatalf("|anc| = %d on the 4-chain, want 10", got)
	}
	return rec.CanonicalStrings()
}

func checkGolden(t *testing.T, got []string, golden string) {
	t.Helper()
	want := strings.Split(strings.TrimSpace(golden), "\n")
	if len(got) != len(want) {
		t.Fatalf("trace length %d, want %d\ngot:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("trace[%d] = %q, want %q\nfull got:\n%s", i, got[i], want[i], strings.Join(got, "\n"))
		}
	}
}

// TestGoldenTraceLockstep pins the exact event stream of the superstep
// schedule: any change to event semantics (iteration numbering, message
// accounting, busy/idle pairing) shows up as a diff against this golden.
func TestGoldenTraceLockstep(t *testing.T) {
	checkGolden(t, lockstepTrace(t, goldenProgram(t)), goldenLockstepTrace)
}

// TestGoldenTraceLockstepBroadcast pins Example 2, where each derived
// tuple is kept locally and sent to the peer.
func TestGoldenTraceLockstepBroadcast(t *testing.T) {
	checkGolden(t, lockstepTrace(t, goldenExample2(t)), goldenLockstepBroadcast)
}

// TestGoldenTraceLockstepGeneral pins the Section 7 general scheme, where a
// tuple's routers may send it to itself, to a peer, or to both.
func TestGoldenTraceLockstepGeneral(t *testing.T) {
	checkGolden(t, lockstepTrace(t, goldenGeneral(t)), goldenLockstepGeneral)
}

// TestLockstepTraceDeterministic re-runs the same program and demands an
// identical stream — the property the goldens above rely on.
func TestLockstepTraceDeterministic(t *testing.T) {
	a := lockstepTrace(t, goldenProgram(t))
	b := lockstepTrace(t, goldenProgram(t))
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatal("two lockstep runs produced different event streams")
	}
}

// TestRunMatchesLockstep pins that Run executes the goldens' schedule:
// across repeated concurrent runs, every per-processor counter except Busy
// equals RunLockstep's, per-destination channel usage included.
func TestRunMatchesLockstep(t *testing.T) {
	random := func(t *testing.T) *Program {
		p, err := BuildQ(mustSirup(t, parser.MustParse(ancestorRules+randomParFacts(40, 120, 5))), rewrite.SirupSpec{
			Procs: hashpart.RangeProcs(3),
			VR:    []string{"Z"}, VE: []string{"X"},
			H: hashpart.ModHash{N: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	progs := map[string]func(*testing.T) *Program{
		"example3-random": random, "example3": goldenProgram,
		"example2": goldenExample2, "example8": goldenGeneral,
	}
	for name, build := range progs {
		p := build(t)
		want, err := RunLockstep(p, relation.Store{}, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 20; rep++ {
			got, err := Run(p, relation.Store{}, RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for i, ps := range got.Stats.Procs {
				w := want.Stats.Procs[i]
				ps.Busy, w.Busy = 0, 0
				if !reflect.DeepEqual(ps, w) {
					t.Fatalf("%s rep %d proc %d: Run %+v, RunLockstep %+v", name, rep, ps.Proc, ps, w)
				}
			}
		}
	}
}

const goldenLockstepTrace = `
run_start engine=lockstep procs=[0 1]
busy proc=0
iter_start proc=0 iter=0
firings proc=0 pred=anc n=2 dup=0
iter_end proc=0 iter=0 delta=2
iter_start proc=0 iter=1
firings proc=0 pred=anc n=2 dup=0
iter_end proc=0 iter=1 delta=2
send from=0 to=1 pred=anc n=2
idle proc=0
busy proc=1
iter_start proc=1 iter=0
firings proc=1 pred=anc n=2 dup=0
iter_end proc=1 iter=0 delta=2
iter_start proc=1 iter=1
firings proc=1 pred=anc n=1 dup=0
iter_end proc=1 iter=1 delta=1
send from=1 to=0 pred=anc n=1
idle proc=1
busy proc=0
recv at=0 from=1 pred=anc n=1 dup=0
iter_start proc=0 iter=2
firings proc=0 pred=anc n=1 dup=0
iter_end proc=0 iter=2 delta=1
send from=0 to=1 pred=anc n=1
idle proc=0
busy proc=1
recv at=1 from=0 pred=anc n=2 dup=0
iter_start proc=1 iter=2
firings proc=1 pred=anc n=1 dup=0
iter_end proc=1 iter=2 delta=1
send from=1 to=0 pred=anc n=1
idle proc=1
busy proc=0
recv at=0 from=1 pred=anc n=1 dup=0
iter_start proc=0 iter=3
firings proc=0 pred=anc n=1 dup=0
iter_end proc=0 iter=3 delta=1
send from=0 to=1 pred=anc n=1
idle proc=0
busy proc=1
recv at=1 from=0 pred=anc n=1 dup=0
iter_start proc=1 iter=3
firings proc=1 pred=anc n=0 dup=0
iter_end proc=1 iter=3 delta=0
idle proc=1
busy proc=1
recv at=1 from=0 pred=anc n=1 dup=0
iter_start proc=1 iter=4
firings proc=1 pred=anc n=0 dup=0
iter_end proc=1 iter=4 delta=0
idle proc=1
probe detector=superstep n=4 quiesced=true
run_end
`

const goldenLockstepBroadcast = `
run_start engine=lockstep procs=[0 1]
busy proc=0
iter_start proc=0 iter=0
firings proc=0 pred=anc n=3 dup=0
iter_end proc=0 iter=0 delta=3
send from=0 to=1 pred=anc n=3
iter_start proc=0 iter=1
firings proc=0 pred=anc n=1 dup=0
iter_end proc=0 iter=1 delta=1
send from=0 to=1 pred=anc n=1
iter_start proc=0 iter=2
firings proc=0 pred=anc n=0 dup=0
iter_end proc=0 iter=2 delta=0
idle proc=0
busy proc=1
iter_start proc=1 iter=0
firings proc=1 pred=anc n=2 dup=0
iter_end proc=1 iter=0 delta=2
send from=1 to=0 pred=anc n=2
iter_start proc=1 iter=1
firings proc=1 pred=anc n=0 dup=0
iter_end proc=1 iter=1 delta=0
idle proc=1
busy proc=0
recv at=0 from=1 pred=anc n=2 dup=0
iter_start proc=0 iter=3
firings proc=0 pred=anc n=2 dup=1
iter_end proc=0 iter=3 delta=1
send from=0 to=1 pred=anc n=1
iter_start proc=0 iter=4
firings proc=0 pred=anc n=1 dup=0
iter_end proc=0 iter=4 delta=1
send from=0 to=1 pred=anc n=1
iter_start proc=0 iter=5
firings proc=0 pred=anc n=0 dup=0
iter_end proc=0 iter=5 delta=0
idle proc=0
busy proc=1
recv at=1 from=0 pred=anc n=3 dup=0
recv at=1 from=0 pred=anc n=1 dup=0
iter_start proc=1 iter=2
firings proc=1 pred=anc n=1 dup=0
iter_end proc=1 iter=2 delta=1
send from=1 to=0 pred=anc n=1
iter_start proc=1 iter=3
firings proc=1 pred=anc n=0 dup=0
iter_end proc=1 iter=3 delta=0
idle proc=1
busy proc=0
recv at=0 from=1 pred=anc n=1 dup=0
iter_start proc=0 iter=6
firings proc=0 pred=anc n=1 dup=1
iter_end proc=0 iter=6 delta=0
idle proc=0
busy proc=1
recv at=1 from=0 pred=anc n=1 dup=0
recv at=1 from=0 pred=anc n=1 dup=0
iter_start proc=1 iter=4
firings proc=1 pred=anc n=1 dup=0
iter_end proc=1 iter=4 delta=1
send from=1 to=0 pred=anc n=1
iter_start proc=1 iter=5
firings proc=1 pred=anc n=0 dup=0
iter_end proc=1 iter=5 delta=0
idle proc=1
busy proc=0
recv at=0 from=1 pred=anc n=1 dup=0
iter_start proc=0 iter=7
firings proc=0 pred=anc n=1 dup=1
iter_end proc=0 iter=7 delta=0
idle proc=0
probe detector=superstep n=4 quiesced=true
run_end
`

const goldenLockstepGeneral = `
run_start engine=lockstep procs=[0 1]
busy proc=0
iter_start proc=0 iter=0
firings proc=0 pred=anc n=2 dup=0
iter_end proc=0 iter=0 delta=2
send from=0 to=1 pred=anc n=2
iter_start proc=0 iter=1
firings proc=0 pred=anc n=0 dup=0
iter_end proc=0 iter=1 delta=0
idle proc=0
busy proc=1
iter_start proc=1 iter=0
firings proc=1 pred=anc n=2 dup=0
iter_end proc=1 iter=0 delta=2
send from=1 to=0 pred=anc n=2
iter_start proc=1 iter=1
firings proc=1 pred=anc n=0 dup=0
iter_end proc=1 iter=1 delta=0
idle proc=1
busy proc=0
recv at=0 from=1 pred=anc n=2 dup=0
iter_start proc=0 iter=2
firings proc=0 pred=anc n=2 dup=0
iter_end proc=0 iter=2 delta=2
send from=0 to=1 pred=anc n=2
idle proc=0
busy proc=1
recv at=1 from=0 pred=anc n=2 dup=0
iter_start proc=1 iter=2
firings proc=1 pred=anc n=1 dup=0
iter_end proc=1 iter=2 delta=1
send from=1 to=0 pred=anc n=1
idle proc=1
busy proc=0
recv at=0 from=1 pred=anc n=1 dup=0
iter_start proc=0 iter=3
firings proc=0 pred=anc n=2 dup=0
iter_end proc=0 iter=3 delta=2
send from=0 to=1 pred=anc n=2
iter_start proc=0 iter=4
firings proc=0 pred=anc n=2 dup=1
iter_end proc=0 iter=4 delta=1
send from=0 to=1 pred=anc n=1
idle proc=0
busy proc=1
recv at=1 from=0 pred=anc n=2 dup=0
iter_start proc=1 iter=3
firings proc=1 pred=anc n=3 dup=0
iter_end proc=1 iter=3 delta=3
send from=1 to=0 pred=anc n=2
iter_start proc=1 iter=4
firings proc=1 pred=anc n=0 dup=0
iter_end proc=1 iter=4 delta=0
idle proc=1
busy proc=0
recv at=0 from=1 pred=anc n=2 dup=2
idle proc=0
busy proc=1
recv at=1 from=0 pred=anc n=2 dup=2
recv at=1 from=0 pred=anc n=1 dup=1
idle proc=1
probe detector=superstep n=4 quiesced=true
run_end
`
