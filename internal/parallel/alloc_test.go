package parallel

import (
	"runtime"
	"testing"

	"parlog/internal/hashpart"
	"parlog/internal/relation"
	"parlog/internal/rewrite"
	"parlog/internal/seminaive"
	"parlog/internal/workload"
)

// allocBytes reports the bytes one call of fn allocates, after a warm-up
// call, as the minimum over three calls (a concurrent GC's own metadata can
// land in any single window).
func allocBytes(fn func()) uint64 {
	fn()
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d < best {
			best = d
		}
	}
	return best
}

// TestWorkerAllocMatchesSequential guards against a worker storing derived
// tuples more than once: one worker running Example 3 over random(300,900)
// must allocate at most 1.5× what the sequential engine allocates for the
// same least model.
func TestWorkerAllocMatchesSequential(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts; CI runs this test without -race")
	}
	if testing.Short() {
		t.Skip("measures a full evaluation")
	}
	edb := relation.Store{"par": workload.RandomGraph(300, 900, 1)}
	prog := workload.AncestorProgram()
	s := mustSirup(t, prog)
	p, err := BuildQ(s, rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(1),
		VR:    []string{"Z"}, VE: []string{"X"},
		H: hashpart.ModHash{N: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	seq := allocBytes(func() {
		_, _, err := seminaive.Eval(prog, edb, seminaive.Options{})
		if err != nil {
			runErr = err
		}
	})
	par := allocBytes(func() {
		if _, err := Run(p, edb, RunConfig{}); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	ratio := float64(par) / float64(seq)
	t.Logf("Eval %.2f MB, one worker %.2f MB: %.2f×", float64(seq)/1e6, float64(par)/1e6, ratio)
	if ratio > 1.5 {
		t.Errorf("one worker allocates %.2f× the sequential engine, want ≤ 1.5×", ratio)
	}
}

// TestTwoWorkerAllocBound guards the shuffled scheme's allocation: two
// workers running Example 3 over random(300,900), where about 62k derived
// tuples cross a channel, must allocate at most 2.75× what the sequential
// engine allocates for the same least model. Outgoing batches are flat
// value runs without tuple headers, and pooling concatenates the workers'
// disjoint @in relations; with []relation.Tuple batches and union pooling
// the ratio was 3.56.
func TestTwoWorkerAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts; CI runs this test without -race")
	}
	if testing.Short() {
		t.Skip("measures a full evaluation")
	}
	edb := relation.Store{"par": workload.RandomGraph(300, 900, 1)}
	prog := workload.AncestorProgram()
	p, err := BuildQ(mustSirup(t, prog), rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(2),
		VR:    []string{"Z"}, VE: []string{"X"},
		H: hashpart.ModHash{N: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	seq := allocBytes(func() {
		if _, _, err := seminaive.Eval(prog, edb, seminaive.Options{}); err != nil {
			runErr = err
		}
	})
	par := allocBytes(func() {
		if _, err := Run(p, edb, RunConfig{}); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	ratio := float64(par) / float64(seq)
	t.Logf("Eval %.2f MB, two workers %.2f MB: %.2f×", float64(seq)/1e6, float64(par)/1e6, ratio)
	if ratio > 2.75 {
		t.Errorf("two workers allocate %.2f× the sequential engine, want ≤ 2.75×", ratio)
	}
}
