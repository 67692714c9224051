package dist

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"parlog/internal/dist/fault"
	"parlog/internal/hashpart"
	"parlog/internal/metrics"
	"parlog/internal/network"
	"parlog/internal/obs"
	"parlog/internal/parallel"
	"parlog/internal/randprog"
	"parlog/internal/rewrite"
	"parlog/internal/seminaive"
	"parlog/internal/workload"
)

// zipfParFacts renders a Zipf-skewed digraph as par/2 facts: a few hub
// sources originate most edges — the skew that concentrates load in the
// hubs' hash buckets.
func zipfParFacts(nodes, edges int, s float64, seed int64) string {
	g := workload.ZipfGraph(nodes, edges, s, seed)
	var b strings.Builder
	for _, row := range g.Rows() {
		fmt.Fprintf(&b, "par(v%d, v%d).\n", int(row[0]), int(row[1]))
	}
	return b.String()
}

// firingTotal sums Definition-4 firings over per-bucket stats.
func firingTotal(stats []parallel.ProcStats) int64 {
	var n int64
	for _, ps := range stats {
		n += ps.Firings
	}
	return n
}

// TestFewerWorkersThanBuckets: the program compiles for 4 processors but
// only 2 OS workers run; each worker natively hosts its own bucket and
// adopts one wrapped-around bucket at start. The model and the per-bucket
// stats must be indistinguishable from the 4-worker run.
func TestFewerWorkersThanBuckets(t *testing.T) {
	src := ancestorRules + randomParFacts(20, 50, 11)
	p, edb, seq := buildAncestorQ(t, src, 4, []string{"Z"}, []string{"X"})
	res, err := Run(p, edb, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatalf("2-workers-4-buckets run differs from sequential:\nseq %v\ndist %v",
			seq["anc"], res.Output["anc"])
	}
	if len(res.Stats) != 4 {
		t.Errorf("stats for %d buckets, want 4", len(res.Stats))
	}

	full, err := Run(p, edb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := firingTotal(res.Stats), firingTotal(full.Stats); got != want {
		t.Errorf("firings differ: 2 workers %d, 4 workers %d", got, want)
	}
}

// TestForcedMigrationPreservesModel is the "reassignment is a recovery
// without a death" invariant: a forced mid-run hot-bucket migration must
// leave the least model and the total firing count exactly as a static
// run produces them, and the move must be reported in Result.Migrations
// and narrated in the event stream.
func TestForcedMigrationPreservesModel(t *testing.T) {
	src := ancestorRules + randomParFacts(40, 120, 12)
	p, edb, seq := buildAncestorQ(t, src, 4, []string{"Z"}, []string{"X"})

	static, err := Run(p, edb, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	rec := obs.NewRecorder()
	res, err := Run(p, edb, Config{
		Workers: 2,
		Sink:    rec,
		Rebalance: RebalanceConfig{
			Enabled: true, Force: true, MaxMigrations: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatalf("migrated run differs from sequential least model:\nseq %v\ndist %v",
			seq["anc"], res.Output["anc"])
	}
	if len(res.Migrations) != 1 {
		t.Fatalf("Migrations = %v, want exactly one", res.Migrations)
	}
	m := res.Migrations[0]
	if m.FromWorker == m.ToWorker {
		t.Errorf("migration moved bucket %d onto its own worker %d", m.Bucket, m.FromWorker)
	}
	if len(res.Deaths) != 0 {
		t.Errorf("Deaths = %v during a pure migration, want none", res.Deaths)
	}
	if got, want := firingTotal(res.Stats), firingTotal(static.Stats); got != want {
		t.Errorf("firings differ: migrated %d, static %d", got, want)
	}
	if len(res.Stats) != 4 {
		t.Errorf("stats for %d buckets, want 4", len(res.Stats))
	}
	kinds := map[string]int{}
	for _, e := range rec.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []string{obs.KindMigrationStart, obs.KindMigrationEnd, obs.KindBucketReassigned, obs.KindReplayEnd} {
		if kinds[k] == 0 {
			t.Errorf("no %s event recorded", k)
		}
	}
}

// TestRebalanceRejectedByTransferability drives the rejection path: the
// fault hook corrupts every candidate bucket map with a relabel of a
// pinned bucket, so network.CheckTransferable must veto each attempt. The
// run completes untouched, counts the rejections, and emits the typed
// event — but never migrates.
func TestRebalanceRejectedByTransferability(t *testing.T) {
	src := ancestorRules + randomParFacts(30, 80, 13)
	p, edb, seq := buildAncestorQ(t, src, 4, []string{"Z"}, []string{"X"})

	rec := obs.NewRecorder()
	res, err := Run(p, edb, Config{
		Workers: 2,
		Sink:    rec,
		Rebalance: RebalanceConfig{
			Enabled: true, Force: true, MaxMigrations: 1,
		},
		// Swap the discriminating-function labels of buckets 0 and 1: both
		// carry restriction-set constraints (BuildQ pins every bucket), so
		// the repartition is model-breaking and must be rejected.
		RebalanceFault: func(c *network.Candidate) {
			relabel := make([]int, c.Buckets)
			for i := range relabel {
				relabel[i] = i
			}
			relabel[0], relabel[1] = 1, 0
			c.Relabel = relabel
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatal("run with rejected rebalances differs from sequential least model")
	}
	if len(res.Migrations) != 0 {
		t.Fatalf("Migrations = %v, want none (every candidate was corrupted)", res.Migrations)
	}
	if res.RebalanceRejected == 0 {
		t.Fatal("RebalanceRejected = 0, want at least one rejection")
	}
	found := false
	for _, e := range rec.Events() {
		if e.Kind == obs.KindRebalanceRejected {
			found = true
			if e.Reason == "" {
				t.Error("rejection event carries no reason")
			}
		}
	}
	if !found {
		t.Fatal("no rebalance_rejected event recorded")
	}
}

// TestRebalanceSkewTriggered exercises the real trigger, not Force: a
// Zipf-skewed reachability workload routed into 4 buckets on 2 workers
// develops measurable bucket skew, and the rebalancer must notice and
// move at least one hot bucket without damaging the model.
func TestRebalanceSkewTriggered(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	src := ancestorRules + zipfParFacts(70, 200, 1.2, 14)
	p, edb, seq := buildAncestorQ(t, src, 4, []string{"Z"}, []string{"X"})
	res, err := Run(p, edb, Config{
		Workers: 2,
		Rebalance: RebalanceConfig{
			Enabled:       true,
			SkewThreshold: 1.2,
			Interval:      time.Millisecond, // sample fast enough to see the run
			Window:        2,
			MinVolume:     8,
			Cooldown:      50 * time.Millisecond,
			MaxMigrations: 2, // bound replay work: each move re-ships a log suffix
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatal("skew-triggered run differs from sequential least model")
	}
	// The workload is short; the trigger may or may not fire on a given
	// machine. What must hold: any migration it did make carried a skew
	// measurement above the threshold.
	for _, m := range res.Migrations {
		if m.Skew < 1.2 {
			t.Errorf("migration of bucket %d recorded skew %.2f below the 1.2 threshold", m.Bucket, m.Skew)
		}
	}
}

// TestMigrationChaosKillDuringMigration composes the fault injector with a
// forced migration: worker 1 — the migration target under the deterministic
// tie-break — is killed at its first write after the coordinator decides
// the first migration, so the death races the adopt/replay of the migrated
// bucket. Death recovery must then
// move everything worker 1 hosted (its native buckets plus the freshly
// migrated one) to the survivors, and the model must match the undisturbed
// static run exactly. Run under -race -count=5.
func TestMigrationChaosKillDuringMigration(t *testing.T) {
	src := ancestorRules + randomParFacts(40, 120, 15)
	p, edb, seq := buildAncestorQ(t, src, 6, []string{"Z"}, []string{"X"})

	undisturbed, err := Run(p, edb, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}

	dial, in := injectorDial(1, fault.Schedule{Seed: 15, KillConn: 1})
	res, err := Run(p, edb, Config{
		Workers:    3,
		WorkerDial: dial,
		Rebalance: RebalanceConfig{
			Enabled: true, Force: true, MaxMigrations: 2,
		},
		// The coordinator calls the hook as it decides a migration; the
		// candidate goes on unchanged.
		RebalanceFault: func(*network.Candidate) { in.Arm() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !undisturbed.Output["anc"].Equal(res.Output["anc"]) {
		t.Fatal("kill-during-migration run differs from the undisturbed run")
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatal("kill-during-migration run differs from sequential least model")
	}
	if len(res.Deaths) != 1 || res.Deaths[0] != 1 {
		t.Fatalf("Deaths = %v, want [1]", res.Deaths)
	}
	if len(res.Stats) != 6 {
		t.Errorf("stats for %d buckets, want 6", len(res.Stats))
	}
}

// TestRebalanceRandomProgramsForcedMigration is the randprog differential
// under forced migrations: 50 generated programs, each run with 2 workers
// over 3 buckets and a forced mid-run migration, checked against the
// sequential least model — and, seed by seed, against the static run's
// firing totals.
func TestRebalanceRandomProgramsForcedMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(0); seed < 50; seed++ {
		g := randprog.Generate(randprog.Config{}, seed)
		want, _, err := seminaive.Eval(g.Prog, g.EDB, seminaive.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rules, _ := g.Prog.FactTuples()
		spec := rewrite.GeneralSpec{Procs: hashpart.RangeProcs(3)}
		h := hashpart.ModHash{N: 3, Seed: uint64(seed)}
		ok := true
		for _, r := range rules {
			vars := r.BodyVars()
			if len(vars) == 0 {
				ok = false
				break
			}
			spec.Rules = append(spec.Rules, rewrite.RuleSpec{Seq: vars[:1], H: h})
		}
		if !ok {
			continue
		}
		p, err := parallel.BuildGeneral(g.Prog, spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		static, err := Run(p, g.EDB, Config{Workers: 2})
		if err != nil {
			t.Fatalf("seed %d (static): %v", seed, err)
		}
		res, err := Run(p, g.EDB, Config{
			Workers: 2,
			Rebalance: RebalanceConfig{
				Enabled: true, Force: true, MaxMigrations: 1,
			},
		})
		if err != nil {
			t.Fatalf("seed %d (rebalanced): %v", seed, err)
		}
		for _, pred := range g.Prog.IDBPreds() {
			a, b := want[pred], res.Output[pred]
			if (a == nil) != (b == nil) || (a != nil && !a.Equal(b)) {
				t.Fatalf("seed %d: %s differs under forced migration\nprogram:\n%s", seed, pred, g.Prog)
			}
		}
		if got, wantF := firingTotal(res.Stats), firingTotal(static.Stats); got != wantF {
			t.Fatalf("seed %d: firings differ under forced migration: %d vs static %d\nprogram:\n%s",
				seed, got, wantF, g.Prog)
		}
	}
}

// TestRebalanceMetrics: the MetricsSink surfaces the rebalance counters.
func TestRebalanceMetrics(t *testing.T) {
	src := ancestorRules + randomParFacts(30, 80, 16)
	p, edb, _ := buildAncestorQ(t, src, 4, []string{"Z"}, []string{"X"})

	reg := metrics.New()
	sink := obs.NewMetricsSink(reg)
	res, err := Run(p, edb, Config{
		Workers: 2,
		Sink:    sink,
		Rebalance: RebalanceConfig{
			Enabled: true, Force: true, MaxMigrations: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Migrations) != 1 {
		t.Fatalf("Migrations = %v, want one", res.Migrations)
	}
	vals := map[string]float64{}
	for _, ms := range reg.Snapshot() {
		if ms.Value != nil {
			vals[ms.Name] = *ms.Value
		}
	}
	if vals["parlog_rebalance_migrations_total"] != 1 {
		t.Errorf("parlog_rebalance_migrations_total = %v, want 1", vals["parlog_rebalance_migrations_total"])
	}
	if int(vals["parlog_rebalance_replayed_batches_total"]) != res.Migrations[0].Replayed {
		t.Errorf("parlog_rebalance_replayed_batches_total = %v, want %d",
			vals["parlog_rebalance_replayed_batches_total"], res.Migrations[0].Replayed)
	}
}
