package parlog

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"parlog/internal/ast"
	"parlog/internal/obs"
	"parlog/internal/relation"
	"parlog/internal/store"
	"parlog/internal/wire"
)

// Durable-store sentinels, re-exported so callers can errors.Is-branch on
// the failure class. ErrTornLog reports damage consistent with a crash
// mid-write (a truncated final record) — recovery drops the tail and
// continues. ErrCorruptSegment reports damage that cannot be a torn
// write: a checksum-failed record with intact records after it, or a
// damaged segment file. Under the default fail-fast policy Open returns
// it; DurabilityOptions.SkipCorrupt downgrades it to skip-and-report.
var (
	ErrCorruptSegment = store.ErrCorruptSegment
	ErrTornLog        = store.ErrTornLog
)

// FsyncPolicy selects when WAL appends reach stable storage; see the
// re-exported constants.
type FsyncPolicy = store.FsyncPolicy

const (
	// FsyncAlways fsyncs after every append: an acknowledged Apply
	// survives any crash. The default.
	FsyncAlways = store.FsyncAlways
	// FsyncInterval fsyncs at most once per DurabilityOptions.FsyncEvery:
	// a crash may lose the last interval's acknowledged batches, but
	// never corrupts what is on disk.
	FsyncInterval = store.FsyncInterval
	// FsyncNever leaves flushing to the OS — the benchmark upper bound.
	FsyncNever = store.FsyncNever
)

// DurabilityOptions tunes the state directory a View opened with
// EvalOptions.Dir writes. The zero value is the safe default: fsync
// every append, fail fast on corruption, compact every 64 applies.
type DurabilityOptions struct {
	// Fsync is the WAL flush policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncEvery paces FsyncInterval (default 100ms). Setting it with
	// any other policy is an error.
	FsyncEvery time.Duration
	// SkipCorrupt makes recovery skip checksum-failed records and
	// corrupt segments (falling back to an older sibling) instead of
	// failing with ErrCorruptSegment. The damage is still reported
	// through telemetry; the recovered model is the least model of
	// whatever survived.
	SkipCorrupt bool
	// CompactEvery rewrites the EDB snapshot as a fresh segment and
	// resets the WAL after this many successful Applies (default 64).
	CompactEvery int

	// diskHook intercepts physical writes — the crash-fault-injection
	// seam. Tests reach it via WithDiskHook.
	diskHook store.WriteHook
}

// isZero reports whether no durability knob was touched, for Validate's
// "Durability without Dir" check.
func (d DurabilityOptions) isZero() bool {
	return d.Fsync == FsyncAlways && d.FsyncEvery == 0 && !d.SkipCorrupt &&
		d.CompactEvery == 0 && d.diskHook == nil
}

// WithDiskHook returns a copy of o whose durable writes pass through
// hook — the fault-injection seam the crash harness uses (see
// internal/dist/fault.DiskPlan). The hook sees every physical WAL and
// segment write and may truncate the bytes (a torn write), mutate them
// (corruption), or return an error (the process dies at that write).
func (o EvalOptions) WithDiskHook(hook func(name string, data []byte) ([]byte, error)) EvalOptions {
	o.Durability.diskHook = hook
	return o
}

// DurabilityStats reports the state directory's current extent.
type DurabilityStats struct {
	// Epoch is the view epoch, as recovered plus later Applies.
	Epoch uint64 `json:"epoch"`
	// SegmentEpoch is the epoch the newest durable segment pins;
	// HasSegment is false in a directory that has never compacted.
	SegmentEpoch uint64 `json:"segment_epoch"`
	HasSegment   bool   `json:"has_segment"`
	// WALRecords and WALBytes are the write-ahead log's extent since the
	// last compaction — the replay cost of a crash right now.
	WALRecords int   `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
}

// WAL and segment record kinds. The store layer frames and checksums
// records; these kinds give them meaning. A segment is
// recSegMeta recNames recSegEDB: the epoch it pins, the interner
// bindings past the program's own constants, and the full EDB snapshot.
// The WAL carries recNames (new bindings), recApply (one Apply batch),
// recAbort (a logged batch whose maintenance failed — recovery skips
// it) and recClean (clean shutdown marker).
const (
	recNames   byte = 1
	recApply   byte = 2
	recClean   byte = 3
	recAbort   byte = 4
	recSegMeta byte = 5
	recSegEDB  byte = 6
)

// durability is a View's durable half: the state directory plus the
// bookkeeping deciding what still needs to be written.
type durability struct {
	dir  *store.Dir
	opts DurabilityOptions
	sink obs.EventSink
	prog *Program

	names   int // interner high-water mark already persisted
	epoch   uint64
	applies int   // successful Applies since the last compaction
	err     error // poison: first unrecoverable write failure
}

// recoveredState is what openDurability folded off disk.
type recoveredState struct {
	edb   Store
	epoch uint64
}

// shadow is a mutable EDB image recovery folds WAL deltas into: per
// predicate, tuples keyed by their canonical encoding, plus the
// predicate's arity — tracked separately so an EDB relation a history
// has emptied (or that never held a fact) keeps its identity across a
// restart. The wire snapshot cannot carry an empty relation's arity, so
// the segment meta record does.
type shadow struct {
	rows    map[string]map[string]Tuple
	arities map[string]int
}

func newShadow(edb Store) shadow {
	s := shadow{rows: map[string]map[string]Tuple{}, arities: map[string]int{}}
	for pred, rel := range edb {
		m := make(map[string]Tuple, rel.Len())
		for _, t := range rel.Rows() {
			m[t.Key()] = t
		}
		s.rows[pred] = m
		s.arities[pred] = rel.Arity()
	}
	return s
}

// declare registers a predicate's shape without any tuples — the segment
// meta record's arity table replays through here.
func (s shadow) declare(pred string, arity int) {
	if s.rows[pred] == nil {
		s.rows[pred] = map[string]Tuple{}
	}
	s.arities[pred] = arity
}

func (s shadow) apply(deletes, inserts map[string][]Tuple) {
	for pred, ts := range deletes {
		m := s.rows[pred]
		for _, t := range ts {
			delete(m, t.Key())
		}
	}
	for pred, ts := range inserts {
		m := s.rows[pred]
		if m == nil {
			m = map[string]Tuple{}
			s.rows[pred] = m
		}
		for _, t := range ts {
			m[t.Key()] = t
			s.arities[pred] = len(t)
		}
	}
}

func (s shadow) store() Store {
	out := Store{}
	for pred, m := range s.rows {
		arity, ok := s.arities[pred]
		if !ok {
			continue // no arity source: nothing ever declared this predicate
		}
		rel := out.Get(pred, arity)
		for _, t := range m {
			rel.Insert(t)
		}
	}
	return out
}

// openDurability opens (or creates) the state directory and recovers the
// EDB it pins: the newest intact segment's snapshot — or, when no
// segment exists, the caller's edb argument — with the WAL's surviving
// apply records folded on top in epoch order. The caller then
// materializes the least model once over the recovered EDB; by
// confluence of semi-naive evaluation that equals the model the crashed
// process had at its last acknowledged batch.
func openDurability(p *Program, edb Store, opts *EvalOptions, sink obs.EventSink) (*durability, *recoveredState, error) {
	dopts := opts.Durability
	if dopts.CompactEvery == 0 {
		dopts.CompactEvery = 64
	}
	dir, rec, err := store.Open(opts.Dir, store.Options{
		Fsync:       dopts.Fsync,
		FsyncEvery:  dopts.FsyncEvery,
		SkipCorrupt: dopts.SkipCorrupt,
		Hook:        dopts.diskHook,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("parlog: opening state dir: %w", err)
	}
	d := &durability{dir: dir, opts: dopts, sink: sink, prog: p}

	var sh shadow
	segEpoch, hasSeg := dir.SegmentEpoch()
	if hasSeg {
		// The directory is authoritative: its segment replaces the edb
		// argument, which only seeds a directory's very first segment.
		sh = newShadow(nil)
		if err := d.replaySegment(rec.Segment, segEpoch, sh); err != nil {
			dir.Close()
			return nil, nil, err
		}
	} else {
		sh = newShadow(edb)
	}

	walApplies, maxApplied, clean, err := d.replayWAL(rec.WAL, segEpoch, sh)
	if err != nil {
		dir.Close()
		return nil, nil, err
	}
	d.names = p.ast.Interner.Len()
	d.epoch = segEpoch
	if maxApplied > d.epoch {
		d.epoch = maxApplied
	}
	recovered := &recoveredState{edb: sh.store(), epoch: d.epoch}
	obs.StoreRecovery(sink, segEpoch, walApplies, rec.Skipped, rec.Torn, clean)

	if !hasSeg {
		// First contact (or a directory whose segments were all lost):
		// pin the recovered EDB immediately so the edb argument is never
		// needed again and any WAL-only state becomes a proper segment.
		if err := d.compact(recovered.edb); err != nil {
			dir.Close()
			return nil, nil, err
		}
	}
	return d, recovered, nil
}

// replaySegment folds one segment's records: meta (epoch and interner
// baseline), names, and the EDB snapshot. Any structural surprise in a
// checksum-valid segment means it was written by different code or
// tampered with — classified corrupt.
func (d *durability) replaySegment(recs []store.Record, epoch uint64, sh shadow) error {
	if len(recs) == 0 || recs[0].Kind != recSegMeta {
		return fmt.Errorf("parlog: segment %016x does not start with a meta record: %w", epoch, ErrCorruptSegment)
	}
	metaEpoch, arities, err := decodeSegMeta(recs[0].Payload)
	if err != nil {
		return fmt.Errorf("parlog: segment %016x meta: %v: %w", epoch, err, ErrCorruptSegment)
	}
	if metaEpoch != epoch {
		return fmt.Errorf("parlog: segment %016x claims epoch %d: %w", epoch, metaEpoch, ErrCorruptSegment)
	}
	for pred, a := range arities {
		sh.declare(pred, a)
	}
	for _, r := range recs[1:] {
		switch r.Kind {
		case recNames:
			if err := d.replayNames(r.Payload); err != nil {
				return err
			}
		case recSegEDB:
			ins := map[string][]Tuple{}
			if err := wire.DecodeSnapshot(r.Payload, func(pred string, b relation.Batch) error {
				ins[pred] = b.Tuples()
				return nil
			}); err != nil {
				return fmt.Errorf("parlog: segment %016x snapshot: %v: %w", epoch, err, ErrCorruptSegment)
			}
			sh.apply(nil, ins)
		default:
			return fmt.Errorf("parlog: segment %016x has unknown record kind %d: %w", epoch, r.Kind, ErrCorruptSegment)
		}
	}
	return nil
}

// replayWAL folds the log's surviving records into sh. Apply records the
// segment already covers (epoch at or below its pin) and records a
// later recAbort disowns are skipped. Returns how many applies were
// folded, the highest epoch applied, and whether the log ends in a
// clean-shutdown marker.
func (d *durability) replayWAL(recs []store.Record, segEpoch uint64, sh shadow) (applies int, maxApplied uint64, clean bool, err error) {
	aborted := map[uint64]bool{}
	for _, r := range recs {
		if r.Kind == recAbort {
			if e, err := decodeEpoch(r.Payload); err == nil {
				aborted[e] = true
			}
		}
	}
	for i, r := range recs {
		switch r.Kind {
		case recNames:
			if err := d.replayNames(r.Payload); err != nil {
				return 0, 0, false, err
			}
		case recApply:
			epoch, del, ins, derr := decodeApply(r.Payload)
			if derr != nil {
				return 0, 0, false, fmt.Errorf("parlog: WAL record %d: %v: %w", i, derr, ErrCorruptSegment)
			}
			if epoch <= segEpoch || aborted[epoch] {
				continue
			}
			sh.apply(del, ins)
			applies++
			if epoch > maxApplied {
				maxApplied = epoch
			}
		case recClean:
			clean = i == len(recs)-1
		case recAbort:
			// Consumed in the first pass.
		default:
			return 0, 0, false, fmt.Errorf("parlog: WAL record %d has unknown kind %d: %w", i, r.Kind, ErrCorruptSegment)
		}
	}
	return applies, maxApplied, clean, nil
}

// replayNames re-interns a names record and asserts each binding lands
// on the value it had when written. A mismatch means the directory
// belongs to a different program (or the program text changed), which no
// amount of replay can fix.
func (d *durability) replayNames(payload []byte) error {
	base, names, err := decodeNames(payload)
	if err != nil {
		return fmt.Errorf("parlog: names record: %v: %w", err, ErrCorruptSegment)
	}
	for i, name := range names {
		if got := d.prog.ast.Interner.Intern(name); got != ast.Value(base+i) {
			return fmt.Errorf("parlog: state dir was written against a different program: %q bound to %d, expected %d", name, got, base+i)
		}
	}
	return nil
}

// appendNames persists any interner bindings made since the last append,
// so tuples referencing them stay decodable after a restart.
func (d *durability) appendNames() error {
	n := d.prog.ast.Interner.Len()
	if n == d.names {
		return nil
	}
	names := make([]string, 0, n-d.names)
	for v := d.names; v < n; v++ {
		names = append(names, d.prog.ast.Interner.Name(ast.Value(v)))
	}
	nb, synced, err := d.dir.Append(recNames, encodeNames(d.names, names))
	if err != nil {
		return err
	}
	obs.WALAppend(d.sink, recNames, nb, synced)
	d.names = n
	return nil
}

// logApply write-ahead-logs one Apply batch at the epoch it will
// produce. On return the batch is durable under the fsync policy; only
// then may maintenance run.
func (d *durability) logApply(epoch uint64, del, ins map[string][]Tuple) error {
	if d.err != nil {
		return d.err
	}
	if err := d.appendNames(); err != nil {
		d.err = err
		return err
	}
	nb, synced, err := d.dir.Append(recApply, encodeApply(epoch, del, ins))
	if err != nil {
		d.err = err
		return err
	}
	obs.WALAppend(d.sink, recApply, nb, synced)
	return nil
}

// abort disowns a logged batch whose maintenance failed, so recovery
// will not replay it. Best-effort: if the directory is already dead the
// poison on d.err keeps the view from acknowledging anything further.
func (d *durability) abort(epoch uint64) {
	nb, synced, err := d.dir.Append(recAbort, encodeEpoch(epoch))
	if err == nil {
		obs.WALAppend(d.sink, recAbort, nb, synced)
	}
}

// compact pins edb as a fresh segment at the current epoch and resets
// the WAL.
func (d *durability) compact(edb Store) error {
	if d.err != nil {
		return d.err
	}
	// The full name table from value 0: replay then recreates every
	// binding itself, including constants the caller interned before the
	// original Open — a re-open needs only the identical program text.
	in := d.prog.ast.Interner
	n := in.Len()
	names := make([]string, 0, n)
	for v := 0; v < n; v++ {
		names = append(names, in.Name(ast.Value(v)))
	}
	snap := map[string][]Tuple{}
	tuples := 0
	for pred, rel := range edb {
		rows := rel.SortedRows()
		snap[pred] = rows
		tuples += len(rows)
	}
	recs := []store.Record{
		{Kind: recSegMeta, Payload: encodeSegMeta(d.epoch, edb)},
		{Kind: recNames, Payload: encodeNames(0, names)},
		{Kind: recSegEDB, Payload: wire.AppendSnapshot(nil, snap)},
	}
	nb, err := d.dir.Compact(d.epoch, recs)
	if err != nil {
		d.err = err
		return err
	}
	d.names = n
	d.applies = 0
	obs.SegmentWrite(d.sink, d.epoch, nb, tuples)
	return nil
}

// close marks a clean shutdown — compact so restart replays nothing,
// then a clean marker — and releases the directory. A poisoned
// directory is just released; recovery handles the rest.
func (d *durability) close(edb Store) error {
	if d.err == nil {
		if err := d.compact(edb); err == nil {
			if nb, synced, err := d.dir.Append(recClean, encodeEpoch(d.epoch)); err == nil {
				obs.WALAppend(d.sink, recClean, nb, synced)
			}
		}
	}
	return d.dir.Close()
}

// --- record payload codecs ------------------------------------------------

func encodeEpoch(epoch uint64) []byte {
	return binary.AppendUvarint(nil, epoch)
}

func decodeEpoch(p []byte) (uint64, error) {
	e, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, fmt.Errorf("truncated epoch")
	}
	return e, nil
}

// encodeSegMeta pins the segment's epoch and the arity of every EDB
// predicate. The snapshot record alone cannot restore a relation that
// holds no rows — its wire batch has no arity — so the meta record
// carries the full shape table, in sorted order for byte-stable output.
func encodeSegMeta(epoch uint64, edb Store) []byte {
	b := binary.AppendUvarint(nil, epoch)
	preds := make([]string, 0, len(edb))
	for pred := range edb {
		preds = append(preds, pred)
	}
	sort.Strings(preds)
	b = binary.AppendUvarint(b, uint64(len(preds)))
	for _, pred := range preds {
		b = binary.AppendUvarint(b, uint64(len(pred)))
		b = append(b, pred...)
		b = binary.AppendUvarint(b, uint64(edb[pred].Arity()))
	}
	return b
}

func decodeSegMeta(p []byte) (epoch uint64, arities map[string]int, err error) {
	e, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated segment epoch")
	}
	p = p[n:]
	cnt, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated predicate count")
	}
	p = p[n:]
	if cnt > uint64(len(p)) {
		return 0, nil, fmt.Errorf("meta claims %d predicates in %d bytes", cnt, len(p))
	}
	arities = make(map[string]int, cnt)
	for i := uint64(0); i < cnt; i++ {
		l, n := binary.Uvarint(p)
		if n <= 0 || l > uint64(len(p[n:])) {
			return 0, nil, fmt.Errorf("truncated predicate name %d", i)
		}
		pred := string(p[n : n+int(l)])
		p = p[n+int(l):]
		a, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, nil, fmt.Errorf("truncated arity for %s", pred)
		}
		arities[pred] = int(a)
		p = p[n:]
	}
	return e, arities, nil
}

func encodeNames(base int, names []string) []byte {
	b := binary.AppendUvarint(nil, uint64(base))
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		b = binary.AppendUvarint(b, uint64(len(name)))
		b = append(b, name...)
	}
	return b
}

func decodeNames(p []byte) (base int, names []string, err error) {
	b, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated names base")
	}
	p = p[n:]
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated names count")
	}
	p = p[n:]
	if count > uint64(len(p)) {
		return 0, nil, fmt.Errorf("names record claims %d names in %d bytes", count, len(p))
	}
	names = make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		l, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < l {
			return 0, nil, fmt.Errorf("truncated name %d", i)
		}
		names = append(names, string(p[n:n+int(l)]))
		p = p[n+int(l):]
	}
	return int(b), names, nil
}

func encodeApply(epoch uint64, del, ins map[string][]relation.Tuple) []byte {
	b := binary.AppendUvarint(nil, epoch)
	delSnap := wire.AppendSnapshot(nil, del)
	b = binary.AppendUvarint(b, uint64(len(delSnap)))
	b = append(b, delSnap...)
	return wire.AppendSnapshot(b, ins)
}

func decodeApply(p []byte) (epoch uint64, del, ins map[string][]Tuple, err error) {
	e, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, nil, fmt.Errorf("truncated apply epoch")
	}
	p = p[n:]
	dl, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < dl {
		return 0, nil, nil, fmt.Errorf("truncated apply delete length")
	}
	p = p[n:]
	del = map[string][]Tuple{}
	if err := wire.DecodeSnapshot(p[:dl], func(pred string, b relation.Batch) error {
		del[pred] = b.Tuples()
		return nil
	}); err != nil {
		return 0, nil, nil, err
	}
	ins = map[string][]Tuple{}
	if err := wire.DecodeSnapshot(p[dl:], func(pred string, b relation.Batch) error {
		ins[pred] = b.Tuples()
		return nil
	}); err != nil {
		return 0, nil, nil, err
	}
	return e, del, ins, nil
}
