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

// allocated reports the bytes and the allocations one call of fn makes,
// after a warm-up call, each as the minimum over three calls (a concurrent
// GC's own metadata can land in any single window).
func allocated(fn func()) (bytes, mallocs uint64) {
	fn()
	bytes, mallocs = ^uint64(0), ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
	}
	return bytes, mallocs
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
	seq, _ := allocated(func() {
		_, _, err := seminaive.Eval(prog, edb, seminaive.Options{})
		if err != nil {
			runErr = err
		}
	})
	par, _ := allocated(func() {
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
// tuples cross a channel, must allocate at most 2.75× the bytes the
// sequential engine allocates for the same least model, in at most 850
// allocations per run. Outgoing batches are windows of the sending node's
// channel relations, not copies, and pooling concatenates the workers'
// disjoint @in relations; with []relation.Tuple batches and union pooling
// the ratio was 3.56. Measured: 2.48× (both engines' arenas grow with
// their tables) and 698 allocations; when each pass copied its batches
// into slices grown from nil, 1,591.
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
	seq, _ := allocated(func() {
		if _, _, err := seminaive.Eval(prog, edb, seminaive.Options{}); err != nil {
			runErr = err
		}
	})
	par, mallocs := allocated(func() {
		if _, err := Run(p, edb, RunConfig{}); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	ratio := float64(par) / float64(seq)
	t.Logf("Eval %.2f MB, two workers %.2f MB: %.2f×, %d allocations", float64(seq)/1e6, float64(par)/1e6, ratio, mallocs)
	if ratio > 2.75 {
		t.Errorf("two workers allocate %.2f× the sequential engine, want ≤ 2.75×", ratio)
	}
	if mallocs > 850 {
		t.Errorf("two workers make %d allocations per run, want ≤ 850", mallocs)
	}
}
