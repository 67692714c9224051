package dist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"parlog/internal/dist/fault"
	"parlog/internal/relation"
	"parlog/internal/store"
	"parlog/internal/wire"
)

// TestWorkerPersistsCheckpoints: with a checkpoint directory configured,
// every accepted checkpoint must also exist on disk as an intact,
// checksummed file decoding to a wire snapshot.
func TestWorkerPersistsCheckpoints(t *testing.T) {
	src := ancestorRules + randomParFacts(40, 120, 11)
	p, edb, seq := buildAncestorQ(t, src, 3, []string{"Z"}, []string{"X"})

	dir := t.TempDir()
	res, err := Run(p, edb, Config{CheckpointEvery: 4, WorkerDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatal("persisted-checkpoint run differs from sequential least model")
	}
	if res.Checkpoints == 0 {
		t.Fatal("no checkpoints accepted with CheckpointEvery=4")
	}
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoint files on disk (err=%v)", err)
	}
	for _, f := range files {
		var bucket int
		if _, err := fmt.Sscanf(filepath.Base(f), "ckpt-%d.ckpt", &bucket); err != nil {
			t.Fatalf("unexpected checkpoint file name %s", f)
		}
		probe, snap, err := loadCheckpoint(dir, bucket)
		if err != nil {
			t.Fatalf("checkpoint file %s damaged: %v", f, err)
		}
		if probe == 0 {
			t.Fatalf("checkpoint file %s carries no probe number", f)
		}
		if err := wire.DecodeSnapshot(snap, func(string, relation.Batch) error { return nil }); err != nil {
			t.Fatalf("checkpoint file %s does not decode: %v", f, err)
		}
	}
	// Stale temp files never linger: WriteAtomic either publishes or
	// leaves a .tmp the next open removes — and the happy path leaves none.
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("stale temp files after a clean run: %v", tmps)
	}
}

// TestLocalCheckpointAdoption is the recovery scenario under
// LocalCheckpoints: a worker dies after checkpoint cycles, the adopt
// message carries only the checksum, and the survivor restores the
// bucket from the shared directory — still the exact least model.
func TestLocalCheckpointAdoption(t *testing.T) {
	src := ancestorRules + randomParFacts(40, 120, 5)
	p, edb, seq := buildAncestorQ(t, src, 3, []string{"Z"}, []string{"X"})

	dial, in := injectorDial(1, fault.Schedule{Seed: 5, KillConn: 1})
	res, err := Run(p, edb, Config{
		CheckpointEvery:  2,
		CheckpointFault:  armOnCheckpoint(in, 1, 2),
		WorkerDir:        t.TempDir(),
		LocalCheckpoints: true,
		WorkerDial:       dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatalf("local-checkpoint recovery differs from sequential least model:\nseq %v\ndist %v",
			seq["anc"], res.Output["anc"])
	}
	if len(res.Deaths) != 1 || res.Deaths[0] != 1 {
		t.Fatalf("Deaths = %v, want [1]", res.Deaths)
	}
	if res.Checkpoints < 2 {
		t.Fatalf("only %d checkpoints accepted before the kill", res.Checkpoints)
	}
	if len(res.Recoveries) != 1 || res.Recoveries[0].Truncated == 0 {
		t.Fatalf("Recoveries = %+v, want one with a truncated prefix (the part the local checkpoint covers)", res.Recoveries)
	}
}

// TestResolveAdoptSnap pins every branch of the checksum-only adopt
// resolution: a checksum referencing a missing, stale or mismatched
// local checkpoint is a hard error (the coordinator already truncated
// the covered log prefix — nothing can rebuild it), while an exact or
// newer intact file is installed.
func TestResolveAdoptSnap(t *testing.T) {
	dir := t.TempDir()
	snap := wire.AppendSnapshot(nil, map[string][]relation.Tuple{"anc": {{1, 2}}})
	sum := wire.Checksum(snap)

	// Shipped blob and no-checkpoint adopts bypass the directory entirely.
	if got, err := resolveAdoptSnap(dir, wireMsg{Bucket: 0, Snap: snap, Sum: sum}); err != nil || string(got) != string(snap) {
		t.Fatalf("shipped adopt: got %v, %v", got, err)
	}
	if got, err := resolveAdoptSnap(dir, wireMsg{Bucket: 0}); err != nil || got != nil {
		t.Fatalf("empty adopt: got %v, %v", got, err)
	}

	// Checksum-only adopt with no file on disk: fail loud.
	if _, err := resolveAdoptSnap(dir, wireMsg{Bucket: 0, Sum: sum, Probe: 3}); err == nil {
		t.Fatal("missing local checkpoint did not fail the adopt")
	}

	if err := persistCheckpoint(dir, 0, 3, snap); err != nil {
		t.Fatal(err)
	}
	// Exact probe, matching checksum: installed.
	if got, err := resolveAdoptSnap(dir, wireMsg{Bucket: 0, Sum: sum, Probe: 3}); err != nil || string(got) != string(snap) {
		t.Fatalf("exact-probe adopt: got %v, %v", got, err)
	}
	// Exact probe, wrong checksum: corrupt.
	if _, err := resolveAdoptSnap(dir, wireMsg{Bucket: 0, Sum: sum ^ 1, Probe: 3}); !errors.Is(err, store.ErrCorruptSegment) {
		t.Fatalf("checksum mismatch: err = %v, want ErrCorruptSegment", err)
	}
	// On-disk file older than the accepted checkpoint: the disk lost
	// data the coordinator relies on — corrupt.
	if _, err := resolveAdoptSnap(dir, wireMsg{Bucket: 0, Sum: sum, Probe: 4}); !errors.Is(err, store.ErrCorruptSegment) {
		t.Fatalf("stale file: err = %v, want ErrCorruptSegment", err)
	}
	// On-disk file newer than the accepted checkpoint (persisted, then
	// killed before the reply was accepted): installed — a later
	// checkpoint is a superset, so this is monotone-safe.
	newer := wire.AppendSnapshot(nil, map[string][]relation.Tuple{"anc": {{1, 2}, {1, 3}}})
	if err := persistCheckpoint(dir, 0, 5, newer); err != nil {
		t.Fatal(err)
	}
	if got, err := resolveAdoptSnap(dir, wireMsg{Bucket: 0, Sum: sum, Probe: 3}); err != nil || string(got) != string(newer) {
		t.Fatalf("newer-probe adopt: got %v, %v", got, err)
	}

	// A truncated file (torn write the atomic rename should prevent, or
	// a bad disk) is detected by the store-layer checksum.
	path := filepath.Join(dir, ckptName(0))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := resolveAdoptSnap(dir, wireMsg{Bucket: 0, Sum: sum, Probe: 3}); err == nil {
		t.Fatal("truncated checkpoint file did not fail the adopt")
	}
}

// TestColdStartFromLocalCheckpoints: a second run over the same program
// and directory finds the first run's checkpoint files at worker start
// and installs them before evaluation. Installing a checkpoint — a
// subset of each bucket's least model — is monotone-safe, so the second
// run must still produce the exact least model.
func TestColdStartFromLocalCheckpoints(t *testing.T) {
	src := ancestorRules + randomParFacts(40, 120, 11)
	dir := t.TempDir()

	p, edb, seq := buildAncestorQ(t, src, 3, []string{"Z"}, []string{"X"})
	res, err := Run(p, edb, Config{CheckpointEvery: 4, WorkerDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatal("first run differs from sequential least model")
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt")); len(files) == 0 {
		t.Fatal("first run persisted no checkpoints")
	}

	// Fresh program/EDB objects, same directory: workers install their
	// buckets' persisted checkpoints at cold start.
	p2, edb2, seq2 := buildAncestorQ(t, src, 3, []string{"Z"}, []string{"X"})
	res2, err := Run(p2, edb2, Config{WorkerDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !seq2["anc"].Equal(res2.Output["anc"]) {
		t.Fatal("cold-start run differs from sequential least model")
	}
}
