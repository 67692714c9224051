package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMain redirects E15's output file into a scratch directory so the test
// runs (including TestAllExperimentsQuick) never write into the repository.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dlbench")
	if err != nil {
		panic(err)
	}
	benchOut = filepath.Join(dir, "BENCH_parallel.json")
	recoveryOut = filepath.Join(dir, "BENCH_recovery.json")
	coreOut = filepath.Join(dir, "BENCH_core.json")
	planOut = filepath.Join(dir, "BENCH_plan.json")
	ivmOut = filepath.Join(dir, "BENCH_ivm.json")
	durOut = filepath.Join(dir, "BENCH_durability.json")
	rebalanceOut = filepath.Join(dir, "BENCH_rebalance.json")
	profileOut = filepath.Join(dir, "BENCH_profile.json")
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestRecoveryJSON checks the document E16 writes: all three modes present
// and agreeing on the least model, the killed runs actually recovered, and
// the bounded run replayed strictly fewer batches than the full-replay run.
func TestRecoveryJSON(t *testing.T) {
	if err := runE16(true); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(recoveryOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc recoveryDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	byMode := map[string]recoveryRun{}
	for _, r := range doc.Runs {
		byMode[r.Mode] = r
	}
	for _, mode := range []string{"undisturbed", "log-replay", "bounded"} {
		if _, ok := byMode[mode]; !ok {
			t.Fatalf("missing %q run in %s", mode, recoveryOut)
		}
		if byMode[mode].Anc != byMode["undisturbed"].Anc {
			t.Errorf("%s: anc=%d, undisturbed got %d", mode, byMode[mode].Anc, byMode["undisturbed"].Anc)
		}
	}
	full, bounded := byMode["log-replay"], byMode["bounded"]
	if full.Replayed == 0 {
		t.Error("log-replay run recorded no replayed batches")
	}
	if bounded.Checkpoints == 0 {
		t.Error("bounded run took no checkpoints")
	}
	// Truncated > 0 is the replay bound: the recovery skipped the log prefix
	// the checkpoint covered instead of replaying its full history.
	if bounded.Truncated == 0 {
		t.Errorf("bounded recovery replayed its full %d-batch history", bounded.Replayed)
	}
}

// TestPlanJSON checks the document E18 writes: the three query kernels
// present with non-degenerate op counts, and the demand reduction it
// self-gates on recorded in the document.
func TestPlanJSON(t *testing.T) {
	if err := runE18(true); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(planOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc planDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, k := range doc.Kernels {
		names[k.Name] = true
		if k.Ops <= 0 {
			t.Errorf("%s: ops=%d", k.Name, k.Ops)
		}
	}
	for _, want := range []string{"query-demand-off", "query-demand-on", "ex3"} {
		if !names[want] {
			t.Errorf("missing kernel %q in %s", want, planOut)
		}
	}
	if doc.Answers == 0 {
		t.Error("no answers recorded")
	}
	if 2*doc.DemandOnDerived > doc.DemandOffDerived {
		t.Errorf("demand derived %d vs %d undirected — runE18 should have failed",
			doc.DemandOnDerived, doc.DemandOffDerived)
	}
}

// TestIVMJSON checks the document E19 writes: the five maintenance kernels
// present with non-degenerate op counts, and the firing reduction it
// self-gates on recorded in the document.
func TestIVMJSON(t *testing.T) {
	if err := runE19(true); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(ivmOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc ivmDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, k := range doc.Kernels {
		names[k.Name] = true
		if k.Ops <= 0 {
			t.Errorf("%s: ops=%d", k.Name, k.Ops)
		}
	}
	for _, want := range []string{"ivm-open", "ivm-apply-insert", "ivm-apply-delete", "ivm-snapshot", "scratch-refixpoint"} {
		if !names[want] {
			t.Errorf("missing kernel %q in %s", want, ivmOut)
		}
	}
	if doc.AncTuples == 0 || doc.Batches == 0 {
		t.Errorf("degenerate document: %d anc tuples over %d batches", doc.AncTuples, doc.Batches)
	}
	if 5*doc.MaintainFirings > doc.ScratchFirings {
		t.Errorf("maintained %d firings vs %d from scratch — runE19 should have failed",
			doc.MaintainFirings, doc.ScratchFirings)
	}
}

// TestDurabilityJSON checks the document E20 writes: one apply kernel per
// fsync policy plus both restart-path kernels, all with real op counts, and
// the fsync tax recorded. Model/epoch agreement between the cold start, the
// pre-shutdown view and the from-scratch recompute is asserted inside runE20
// itself — an error here would have failed the run.
func TestDurabilityJSON(t *testing.T) {
	if err := runE20(true); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(durOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc durDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, k := range doc.Kernels {
		names[k.Name] = true
		if k.Ops <= 0 || k.NsPerOp <= 0 {
			t.Errorf("%s: ops=%d ns_op=%v", k.Name, k.Ops, k.NsPerOp)
		}
	}
	for _, want := range []string{
		"wal-apply-fsync-always", "wal-apply-fsync-interval", "wal-apply-fsync-never",
		"cold-start-open", "recompute-eval",
	} {
		if !names[want] {
			t.Errorf("missing kernel %q in %s", want, durOut)
		}
	}
	if doc.AncTuples == 0 || doc.Batches == 0 {
		t.Errorf("degenerate document: %d anc tuples over %d batches", doc.AncTuples, doc.Batches)
	}
	if doc.AlwaysOverNever <= 0 {
		t.Errorf("fsync_always_over_never = %v, want > 0", doc.AlwaysOverNever)
	}
}

// TestProfileJSON checks the document E22 writes: both sides measured with
// the configured repetition count, model and firing totals recorded, and
// the on/off ratio present. Exactness of the profiled runs (profile totals
// equal to engine statistics, identical models) is asserted inside runE22
// itself — an error there would have failed the run.
func TestProfileJSON(t *testing.T) {
	if err := runE22(true); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(profileOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc profileDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, side := range []profileSide{doc.Disabled, doc.Profiled} {
		if len(side.WallNs) != side.Reps || side.Reps == 0 {
			t.Errorf("%s: %d samples over %d reps", side.Name, len(side.WallNs), side.Reps)
		}
		if side.MedianWallNs <= 0 {
			t.Errorf("%s: median %d ns", side.Name, side.MedianWallNs)
		}
	}
	if doc.Anc == 0 || doc.Firings == 0 {
		t.Errorf("degenerate document: anc=%d firings=%d", doc.Anc, doc.Firings)
	}
	if doc.ProfiledOverDisabled <= 0 {
		t.Errorf("profiled_over_disabled = %v, want > 0", doc.ProfiledOverDisabled)
	}
}

// TestBenchJSON checks the document E15 writes: all three examples present,
// and for each one the acceptance-relevant series — per-iteration deltas,
// per-worker busy/idle totals and per-channel tuple counts (for the
// communicating schemes) — non-degenerate.
func TestBenchJSON(t *testing.T) {
	if err := runE15(true); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(benchOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.Examples) != 3 {
		t.Fatalf("expected 3 examples, got %d", len(doc.Examples))
	}
	var anc int
	for _, ex := range doc.Examples {
		if ex.Metrics == nil || len(ex.Metrics.Procs) != doc.Workers {
			t.Fatalf("%s: expected metrics for %d workers", ex.Example, doc.Workers)
		}
		if anc == 0 {
			anc = ex.Anc
		} else if ex.Anc != anc {
			t.Errorf("%s: anc=%d, other schemes got %d", ex.Example, ex.Anc, anc)
		}
		var iters, busy int
		for _, p := range ex.Metrics.Procs {
			iters += len(p.Iterations)
			if p.BusyNs > 0 {
				busy++
			}
		}
		if iters == 0 {
			t.Errorf("%s: no per-iteration deltas recorded", ex.Example)
		}
		if busy == 0 {
			t.Errorf("%s: no worker recorded busy time", ex.Example)
		}
		// ex3 partitions by a body variable the head cannot see, so it must
		// communicate; its edge rows carry the per-channel tuple counts.
		if ex.Example == "ex3" {
			var tuples int64
			for _, e := range ex.Metrics.Edges {
				tuples += e.Tuples
			}
			if tuples == 0 {
				t.Error("ex3: expected non-zero per-channel tuple counts")
			}
		}
	}
}
