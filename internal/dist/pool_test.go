package dist

import (
	"reflect"
	"testing"

	"parlog/internal/dist/fault"
	"parlog/internal/parallel"
	"parlog/internal/randprog"
	"parlog/internal/relation"
	"parlog/internal/seminaive"
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
