package dist

import (
	"reflect"
	"runtime"
	"testing"

	"parlog/internal/ast"
	"parlog/internal/dist/fault"
	"parlog/internal/parallel"
	"parlog/internal/randprog"
	"parlog/internal/relation"
	"parlog/internal/seminaive"
	"parlog/internal/wire"
)

// sameFirings reports the first bucket whose Definition-4 counters differ
// between a TCP run and the in-process lockstep run, -1 if none. Firings
// and Generated do not depend on the order batches arrive in; the receive
// counters do, so they are not compared.
func sameFirings(got []parallel.ProcStats, want *parallel.Result) int {
	for i, ps := range want.Stats.Procs {
		if i >= len(got) || got[i].Proc != ps.Proc || got[i].Firings != ps.Firings || got[i].Generated != ps.Generated {
			return ps.Proc
		}
	}
	if len(got) != len(want.Stats.Procs) {
		return len(got)
	}
	return -1
}

func modelSize(out relation.Store) int64 {
	var n int64
	for _, r := range out {
		n += int64(r.Len())
	}
	return n
}

// TestPoolConcatenatesHomeSets: on Examples 1 and 3 every anc tuple has one
// home, so each bucket ships its home set and the coordinator concatenates
// them — also when buckets outnumber workers, since buckets adopted at
// start never moved. The shipped rows are then exactly the model, and the
// counters and placements are the in-process engine's.
func TestPoolConcatenatesHomeSets(t *testing.T) {
	src := ancestorRules + randomParFacts(30, 90, 4)
	for _, tc := range []struct {
		name    string
		vr, ve  []string
		workers int
	}{
		{"example3", []string{"Z"}, []string{"X"}, 0},
		{"example1", []string{"Y"}, []string{"Y"}, 0},
		{"example3 two workers four buckets", []string{"Z"}, []string{"X"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, edb, seq := buildAncestorQ(t, src, 4, tc.vr, tc.ve)
			lock, err := parallel.RunLockstep(p, edb, parallel.RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(p, edb, Config{Workers: tc.workers})
			if err != nil {
				t.Fatal(err)
			}
			if !seq["anc"].Equal(res.Output["anc"]) {
				t.Fatal("pooled result differs from the least model")
			}
			if !reflect.DeepEqual(res.Concatenated, []string{"anc"}) {
				t.Errorf("Concatenated = %v, want [anc]", res.Concatenated)
			}
			if res.OutputRows != int64(seq["anc"].Len()) {
				t.Errorf("workers shipped %d rows, the model has %d", res.OutputRows, seq["anc"].Len())
			}
			if proc := sameFirings(res.Stats, lock); proc >= 0 {
				t.Errorf("processor %d: counters differ from the in-process run", proc)
			}
			if !reflect.DeepEqual(res.Placements, lock.Stats.Placements) {
				t.Errorf("Placements = %v, in-process %v", res.Placements, lock.Stats.Placements)
			}
		})
	}
}

// TestPoolFallsBackWhenTuplesMove: a death or a migration rebuilds a
// bucket elsewhere, so the coordinator must not trust the home sets and
// pools by union; the model stays exact.
func TestPoolFallsBackWhenTuplesMove(t *testing.T) {
	src := ancestorRules + randomParFacts(40, 120, 5)
	t.Run("death", func(t *testing.T) {
		p, edb, seq := buildAncestorQ(t, src, 3, []string{"Z"}, []string{"X"})
		dial, in := injectorDial(1, fault.Schedule{Seed: 5, KillConn: 1})
		res, err := Run(p, edb, Config{WorkerDial: dial, RouteFault: armOnRoute(in, 1, 1)})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Deaths) != 1 {
			t.Fatalf("Deaths = %v, want one", res.Deaths)
		}
		if len(res.Concatenated) != 0 {
			t.Errorf("Concatenated = %v after a death, want none", res.Concatenated)
		}
		if !seq["anc"].Equal(res.Output["anc"]) {
			t.Fatal("recovered run differs from the least model")
		}
	})
	t.Run("migration", func(t *testing.T) {
		p, edb, seq := buildAncestorQ(t, src, 4, []string{"Z"}, []string{"X"})
		res, err := Run(p, edb, Config{
			Workers:   2,
			Rebalance: RebalanceConfig{Enabled: true, Force: true, MaxMigrations: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Migrations) != 1 {
			t.Fatalf("Migrations = %v, want one", res.Migrations)
		}
		if len(res.Concatenated) != 0 {
			t.Errorf("Concatenated = %v after a migration, want none", res.Concatenated)
		}
		if !seq["anc"].Equal(res.Output["anc"]) {
			t.Fatal("migrated run differs from the least model")
		}
	})
}

// TestPoolRandomPrograms is the 50-seed differential over TCP: on every
// generated program the pooled model is the least model, the Definition-4
// counters are the in-process engine's, and withholding the home-set proof
// pools an identical model by union.
func TestPoolRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	concatenated := 0
	for seed := int64(0); seed < 50; seed++ {
		g := randprog.Generate(randprog.Config{}, seed)
		want, _, err := seminaive.Eval(g.Prog, g.EDB, seminaive.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := parallel.BuildGeneral(g.Prog, randprogSpec(t, g, 2+int(seed%3), seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		lock, err := parallel.RunLockstep(p, g.EDB, parallel.RunConfig{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := Run(p, g.EDB, Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		union, err := Run(p, g.EDB, Config{withholdHomes: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		idb := g.Prog.IDBPreds()
		for _, pred := range idb {
			if !want[pred].Equal(res.Output[pred]) {
				t.Fatalf("seed %d: %s differs from the least model\n%s", seed, pred, g.Prog)
			}
			if !res.Output[pred].Equal(union.Output[pred]) {
				t.Fatalf("seed %d: %s pooled differently with the proof withheld\n%s", seed, pred, g.Prog)
			}
		}
		if proc := sameFirings(res.Stats, lock); proc >= 0 {
			t.Fatalf("seed %d: processor %d: counters differ from the in-process run\n%s", seed, proc, g.Prog)
		}
		if len(union.Concatenated) != 0 {
			t.Fatalf("seed %d: Concatenated = %v with the proof withheld", seed, union.Concatenated)
		}
		concatenated += len(res.Concatenated)
		if len(res.Concatenated) == len(idb) && res.OutputRows != modelSize(res.Output) {
			t.Errorf("seed %d: every predicate concatenated, yet %d rows shipped for a model of %d", seed, res.OutputRows, modelSize(res.Output))
		}
	}
	if concatenated == 0 {
		t.Fatal("no predicate was concatenated; the differential checked nothing")
	}
	t.Logf("%d predicates concatenated across 50 programs", concatenated)
}

// TestPoolBuildsNoTable guards the coordinator's table-less concatenation:
// two buckets' home sets of 6,000 rows each are decoded straight into one
// arena, and no dedup table is built, since nothing probes the result.
// pool may allocate at most 1.1× the pooled arena plus 4 KB; a table for
// the same rows would add at least 2/3 of the arena. Measured: 1.02×. A
// later Contains still answers: it enters the rows into a table on its
// first probe.
func TestPoolBuildsNoTable(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts; CI runs this test without -race")
	}
	const rows = 6000
	var outs []*wireMsg
	for b := 0; b < 2; b++ {
		batch := relation.Batch{Arity: 2}
		for i := 0; i < rows; i++ {
			batch.Append(relation.Tuple{ast.Value(b), ast.Value(i)})
		}
		outs = append(outs, &wireMsg{Kind: kindOutput, Index: b, Out: []outBatch{
			{Bucket: b, Pred: "anc", Home: true, Raw: wire.AppendFlat(nil, batch)},
		}})
	}
	res := &Result{Output: relation.Store{}}
	res.Output.Get("anc", 2)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err := pool(res, outs, true, 2)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	anc := res.Output["anc"]
	if !reflect.DeepEqual(res.Concatenated, []string{"anc"}) || anc.Len() != 2*rows {
		t.Fatalf("Concatenated = %v, %d rows; want [anc], %d", res.Concatenated, anc.Len(), 2*rows)
	}
	arena := uint64(anc.NumRows() * anc.Arity() * 4)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("pool allocated %d bytes for a %d-byte arena: %.2f×", bytes, arena, float64(bytes)/float64(arena))
	if bytes > arena*11/10+4096 {
		t.Errorf("pool allocated %d bytes for a %d-byte arena, want ≤ 1.1× + 4 KB", bytes, arena)
	}
	for b := 0; b < 2; b++ {
		for i := 0; i < rows; i++ {
			if !anc.Contains(relation.Tuple{ast.Value(b), ast.Value(i)}) {
				t.Fatalf("pooled relation misses (%d, %d)", b, i)
			}
		}
	}
	if anc.Contains(relation.Tuple{2, 0}) || anc.Insert(relation.Tuple{1, 5}) {
		t.Error("a probe of the pooled relation found a tuple it does not hold, or missed one it does")
	}
}

// TestMisrouteDroppedAtAccept diverts every batch worker 0 sends to bucket
// 1 on Example 3, where each anc tuple has one home and the h(Z)=i test on
// anc@in is proven implied. Bucket 1's Accept drops and counts the
// diverted tuples not homed there (Unhomed), so no bucket fires on a tuple
// placed where its test fails, and the run derives only tuples of the
// least model, pooled by union.
func TestMisrouteDroppedAtAccept(t *testing.T) {
	src := ancestorRules + randomParFacts(30, 90, 6)
	p, edb, seq := buildAncestorQ(t, src, 3, []string{"Z"}, []string{"X"})
	plan := fault.NewMisroutePlan(0, 0).DivertAllFrom(0, 1)
	res, err := Run(p, edb, Config{RouteFault: plan.Route})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seen() == 0 {
		t.Fatal("router never consulted the misroute plan")
	}
	var unhomed int64
	for _, ps := range res.Stats {
		unhomed += ps.Unhomed
	}
	if unhomed == 0 {
		t.Fatal("no diverted tuple was dropped at Accept")
	}
	if len(res.Concatenated) != 0 {
		t.Errorf("Concatenated = %v after a misroute, want none", res.Concatenated)
	}
	anc := res.Output["anc"]
	for _, tu := range anc.Rows() {
		if !seq["anc"].Contains(tu) {
			t.Fatalf("the diverted run derived %v, outside the least model", tu)
		}
	}
	if anc.Len() == 0 {
		t.Fatal("the diverted run derived nothing")
	}
	t.Logf("%d tuples dropped, %d of the model's %d derived", unhomed, anc.Len(), seq["anc"].Len())
}
