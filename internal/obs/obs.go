// Package obs is the engine-wide observability layer: a single EventSink
// interface that all three evaluation engines (sequential semi-naive,
// in-process parallel, distributed) report into, plus two built-in sinks —
// a lock-free counting sink that aggregates per-iteration delta sizes,
// per-edge tuple counts and per-worker busy/idle time, and a trace
// recorder that captures the full event stream for JSON export.
//
// The layer is zero-cost when disabled: engines hold a plain interface
// value and guard every emission with a nil check, so an unconfigured run
// performs no calls, no allocations and no atomic operations on behalf of
// observability.
package obs

import "time"

// EventSink receives the engine's execution events. Implementations must
// be safe for concurrent use: parallel and distributed workers call the
// per-proc methods from their own goroutines. A method is called with the
// paper-level processor id (the values of ProcSet.IDs, which need not be
// dense or start at zero); the sequential engine reports as processor 0.
//
// Sinks must not block: they sit on the engines' hot paths and anything
// slower than a few atomic updates will distort the timings they observe.
type EventSink interface {
	// RunStart opens a run (or one stratum of a stratified run) on the
	// named engine ("seminaive", "parallel", "lockstep" or "dist") over
	// the given processor ids.
	RunStart(engine string, procs []int)
	// IterationStart marks processor proc beginning semi-naive
	// iteration iter (1-based; 0 is the initialization pass).
	IterationStart(proc, iter int)
	// IterationEnd closes the iteration; delta is the number of new
	// tuples the processor derived in it.
	IterationEnd(proc, iter, delta int)
	// RuleFirings reports one rule's batch within an iteration: the
	// head predicate, successful instantiations, and how many of them
	// rederived an already-known tuple.
	RuleFirings(proc int, pred string, firings, dup int64)
	// MessageSent reports a batch of tuples leaving proc from for proc
	// to over channel t_{from,to}.
	MessageSent(from, to int, pred string, tuples int)
	// MessageReceived reports a batch arriving at proc at; dup counts
	// the tuples the receiver already knew.
	MessageReceived(at, from int, pred string, tuples, dup int)
	// WorkerBusy and WorkerIdle mark a processor's transitions between
	// evaluating and waiting for messages.
	WorkerBusy(proc int)
	WorkerIdle(proc int)
	// TermProbe reports one probe of the termination detector: the
	// detector name, a probe sequence number, and whether the system was
	// found quiescent. Every parallel engine, in process or over TCP,
	// reports one final probe, "superstep", whose number is the count of
	// supersteps run.
	TermProbe(detector string, probe int, quiesced bool)
	// HeartbeatMiss reports that processor proc has been silent for
	// misses consecutive heartbeat intervals without yet being declared
	// dead (distributed engine only).
	HeartbeatMiss(proc, misses int)
	// WorkerDead reports the coordinator declaring processor proc dead
	// (connection lost or liveness deadline exceeded).
	WorkerDead(proc int, reason string)
	// BucketReassigned reports hash bucket bucket moving from dead
	// processor fromProc to surviving processor toProc.
	BucketReassigned(bucket, fromProc, toProc int)
	// ReplayStart and ReplayEnd bracket the replay of a reassigned
	// bucket's message log to its new owner; messages is the number of
	// logged batches replayed.
	ReplayStart(bucket, toProc int)
	ReplayEnd(bucket, toProc, messages int)
	// CheckpointStart reports the coordinator requesting a checkpoint of
	// hash bucket bucket from processor proc, its current owner.
	CheckpointStart(bucket, proc int)
	// CheckpointEnd reports the checkpoint reply arriving: tuples is the
	// snapshot's derived-tuple count; ok is false when the reply was
	// rejected (checksum mismatch or an injected drop) and the send log
	// was therefore not truncated.
	CheckpointEnd(bucket, proc, tuples int, ok bool)
	// LogTruncated reports batches logged batches of bucket bucket being
	// dropped because an accepted checkpoint now covers them.
	LogTruncated(bucket, batches int)
	// MemoryPressure reports the coordinator's tracked memory (send
	// logs + stored checkpoints) exceeding its budget; the runtime
	// responds by forcing an early checkpoint cycle.
	MemoryPressure(used, budget int64)
	// BatchDropped reports a data batch addressed to an out-of-range
	// bucket being discarded by the router instead of delivered.
	BatchDropped(fromProc, bucket, tuples int)
	// NetworkViolation reports the conformance auditor finding traffic on
	// channel t_{from,to} that the derived minimal network graph
	// (Section 5) predicts can never carry a tuple — a correctness
	// tripwire for the hash-partitioning layer. tuples is the observed
	// volume on the offending edge.
	NetworkViolation(from, to int, tuples int64)
	// RunEnd closes the run opened by the matching RunStart.
	RunEnd(wall time.Duration)
}

// SpanSink is an optional extension of EventSink for causally-linked
// spans: distributed data batches carry a span id (and the id of the span
// whose processing produced them) through the wire envelope, so sends,
// receives and post-failure replays of the same batch can be stitched into
// one causal chain. Sinks that don't implement it simply miss the span
// stream; emitters must type-assert (or use the Span* helpers) so plain
// EventSinks keep working unchanged.
type SpanSink interface {
	// SpanSend reports a data batch leaving proc for peer: span is the
	// batch's fresh id, parent the id of the received batch whose
	// processing derived it (0 for initialization sends).
	SpanSend(proc, peer int, pred string, tuples int, span, parent uint64)
	// SpanRecv reports the batch arriving at proc from peer.
	SpanRecv(proc, peer int, pred string, tuples int, span, parent uint64)
	// SpanReplay reports the coordinator re-delivering a logged batch to
	// bucket's new owner toProc during recovery; span is the original
	// batch's id, preserved verbatim through the log.
	SpanReplay(bucket, toProc int, span uint64)
}

// SpanSend forwards to sink if it implements SpanSink; nil-safe.
func SpanSend(sink EventSink, proc, peer int, pred string, tuples int, span, parent uint64) {
	if ss, ok := sink.(SpanSink); ok {
		ss.SpanSend(proc, peer, pred, tuples, span, parent)
	}
}

// SpanRecv forwards to sink if it implements SpanSink; nil-safe.
func SpanRecv(sink EventSink, proc, peer int, pred string, tuples int, span, parent uint64) {
	if ss, ok := sink.(SpanSink); ok {
		ss.SpanRecv(proc, peer, pred, tuples, span, parent)
	}
}

// SpanReplay forwards to sink if it implements SpanSink; nil-safe.
func SpanReplay(sink EventSink, bucket, toProc int, span uint64) {
	if ss, ok := sink.(SpanSink); ok {
		ss.SpanReplay(bucket, toProc, span)
	}
}

// PlanSink is an optional extension of EventSink for the query planner's
// compile-time decisions: join-order reorderings, constraint pushdowns and
// demand (magic-sets) rewrites. Like SpanSink, sinks that don't implement
// it simply miss the plan stream, so golden recordings of the base event
// stream are unaffected; emitters use the nil-safe helpers below.
type PlanSink interface {
	// PlanCompiled reports one compiled rule plan for the given head
	// predicate: moved counts body atoms executing away from their textual
	// position, pushdowns counts constraints checked before the final join
	// level.
	PlanCompiled(proc int, pred string, moved, pushdowns int)
	// DemandRewrite reports a magic-sets rewrite of a program for a goal:
	// rules is the rewritten program's rule count, magic how many of them
	// are demand (magic/seed) rules.
	DemandRewrite(goal string, rules, magic int)
}

// PlanCompiled forwards to sink if it implements PlanSink; nil-safe.
func PlanCompiled(sink EventSink, proc int, pred string, moved, pushdowns int) {
	if ps, ok := sink.(PlanSink); ok {
		ps.PlanCompiled(proc, pred, moved, pushdowns)
	}
}

// DemandRewrite forwards to sink if it implements PlanSink; nil-safe.
func DemandRewrite(sink EventSink, goal string, rules, magic int) {
	if ps, ok := sink.(PlanSink); ok {
		ps.DemandRewrite(goal, rules, magic)
	}
}

// IVMSink is an optional extension of EventSink for incremental view
// maintenance: batches applied to a live View, the DRed overdelete/rederive
// work they caused, and snapshot publication. Like SpanSink and PlanSink,
// sinks that don't implement it simply miss the stream; emitters use the
// nil-safe helpers below.
type IVMSink interface {
	// ApplyStart reports a maintenance batch beginning: the number of EDB
	// tuples to insert and delete.
	ApplyStart(inserts, deletes int)
	// ApplyEnd reports the batch absorbed: net live-set growth/shrink,
	// DRed overdeletions and rederivations, the derived work (successful
	// ground substitutions) the maintenance passes enumerated, and wall
	// time. err is non-nil when the batch failed.
	ApplyEnd(inserted, deleted, overdeleted, rederived int, firings int64, wall time.Duration, err error)
	// SnapshotTaken reports an immutable snapshot being published: the
	// view epoch it pins and its live tuple count.
	SnapshotTaken(epoch uint64, tuples int)
}

// ApplyStart forwards to sink if it implements IVMSink; nil-safe.
func ApplyStart(sink EventSink, inserts, deletes int) {
	if is, ok := sink.(IVMSink); ok {
		is.ApplyStart(inserts, deletes)
	}
}

// ApplyEnd forwards to sink if it implements IVMSink; nil-safe.
func ApplyEnd(sink EventSink, inserted, deleted, overdeleted, rederived int, firings int64, wall time.Duration, err error) {
	if is, ok := sink.(IVMSink); ok {
		is.ApplyEnd(inserted, deleted, overdeleted, rederived, firings, wall, err)
	}
}

// SnapshotTaken forwards to sink if it implements IVMSink; nil-safe.
func SnapshotTaken(sink EventSink, epoch uint64, tuples int) {
	if is, ok := sink.(IVMSink); ok {
		is.SnapshotTaken(epoch, tuples)
	}
}

// RebalanceSink is an optional extension of EventSink for the adaptive
// load balancer: skew-triggered bucket migrations between live workers and
// transferability rejections. Like the other optional extensions, sinks
// that don't implement it simply miss the stream; emitters use the
// nil-safe helpers below.
type RebalanceSink interface {
	// MigrationStart reports the coordinator beginning a live migration of
	// bucket from worker fromProc to worker toProc; skew is the per-bucket
	// load skew ratio (max/mean over the sampling window) that triggered
	// it.
	MigrationStart(bucket, fromProc, toProc int, skew float64)
	// MigrationEnd closes the migration: replayed is the number of logged
	// batches re-delivered to the new owner.
	MigrationEnd(bucket, fromProc, toProc, replayed int)
	// RebalanceRejected reports a candidate repartitioning failing the
	// transferability check and being discarded instead of applied.
	RebalanceRejected(bucket, fromProc, toProc int, reason string)
}

// MigrationStart forwards to sink if it implements RebalanceSink; nil-safe.
func MigrationStart(sink EventSink, bucket, fromProc, toProc int, skew float64) {
	if rs, ok := sink.(RebalanceSink); ok {
		rs.MigrationStart(bucket, fromProc, toProc, skew)
	}
}

// MigrationEnd forwards to sink if it implements RebalanceSink; nil-safe.
func MigrationEnd(sink EventSink, bucket, fromProc, toProc, replayed int) {
	if rs, ok := sink.(RebalanceSink); ok {
		rs.MigrationEnd(bucket, fromProc, toProc, replayed)
	}
}

// RebalanceRejected forwards to sink if it implements RebalanceSink; nil-safe.
func RebalanceRejected(sink EventSink, bucket, fromProc, toProc int, reason string) {
	if rs, ok := sink.(RebalanceSink); ok {
		rs.RebalanceRejected(bucket, fromProc, toProc, reason)
	}
}

// StoreSink is an optional extension of EventSink for the durable
// storage tier: WAL appends, segment compactions and recovery. Like the
// other optional extensions, sinks that don't implement it simply miss
// the stream; emitters use the nil-safe helpers below.
type StoreSink interface {
	// WALAppend reports one record appended to the write-ahead log: its
	// consumer-assigned kind, framed byte size and whether this append
	// forced an fsync.
	WALAppend(kind byte, bytes int, synced bool)
	// SegmentWrite reports one compaction: the epoch the new segment
	// pins, its byte size and the tuples it snapshots.
	SegmentWrite(epoch uint64, bytes int64, tuples int)
	// StoreRecovery reports one recovery at open: the segment epoch
	// restored (0 if none), the WAL apply records replayed on top,
	// checksum-failed records skipped past, whether a torn tail was
	// dropped, and whether the directory recorded a clean shutdown.
	StoreRecovery(segEpoch uint64, walApplies, skipped int, torn, clean bool)
}

// WALAppend forwards to sink if it implements StoreSink; nil-safe.
func WALAppend(sink EventSink, kind byte, bytes int, synced bool) {
	if ss, ok := sink.(StoreSink); ok {
		ss.WALAppend(kind, bytes, synced)
	}
}

// SegmentWrite forwards to sink if it implements StoreSink; nil-safe.
func SegmentWrite(sink EventSink, epoch uint64, bytes int64, tuples int) {
	if ss, ok := sink.(StoreSink); ok {
		ss.SegmentWrite(epoch, bytes, tuples)
	}
}

// StoreRecovery forwards to sink if it implements StoreSink; nil-safe.
func StoreRecovery(sink EventSink, segEpoch uint64, walApplies, skipped int, torn, clean bool) {
	if ss, ok := sink.(StoreSink); ok {
		ss.StoreRecovery(segEpoch, walApplies, skipped, torn, clean)
	}
}

// fanout broadcasts every event to a fixed list of sinks.
type fanout struct {
	sinks []EventSink
}

// Fanout returns a sink that forwards every event to each non-nil sink in
// order. Nil arguments are dropped; zero or one live sink collapses to nil
// or the sink itself, so engines keep their single nil check.
func Fanout(sinks ...EventSink) EventSink {
	live := make([]EventSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return &fanout{sinks: live}
}

func (f *fanout) RunStart(engine string, procs []int) {
	for _, s := range f.sinks {
		s.RunStart(engine, procs)
	}
}

func (f *fanout) IterationStart(proc, iter int) {
	for _, s := range f.sinks {
		s.IterationStart(proc, iter)
	}
}

func (f *fanout) IterationEnd(proc, iter, delta int) {
	for _, s := range f.sinks {
		s.IterationEnd(proc, iter, delta)
	}
}

func (f *fanout) RuleFirings(proc int, pred string, firings, dup int64) {
	for _, s := range f.sinks {
		s.RuleFirings(proc, pred, firings, dup)
	}
}

func (f *fanout) MessageSent(from, to int, pred string, tuples int) {
	for _, s := range f.sinks {
		s.MessageSent(from, to, pred, tuples)
	}
}

func (f *fanout) MessageReceived(at, from int, pred string, tuples, dup int) {
	for _, s := range f.sinks {
		s.MessageReceived(at, from, pred, tuples, dup)
	}
}

func (f *fanout) WorkerBusy(proc int) {
	for _, s := range f.sinks {
		s.WorkerBusy(proc)
	}
}

func (f *fanout) WorkerIdle(proc int) {
	for _, s := range f.sinks {
		s.WorkerIdle(proc)
	}
}

func (f *fanout) TermProbe(detector string, probe int, quiesced bool) {
	for _, s := range f.sinks {
		s.TermProbe(detector, probe, quiesced)
	}
}

func (f *fanout) HeartbeatMiss(proc, misses int) {
	for _, s := range f.sinks {
		s.HeartbeatMiss(proc, misses)
	}
}

func (f *fanout) WorkerDead(proc int, reason string) {
	for _, s := range f.sinks {
		s.WorkerDead(proc, reason)
	}
}

func (f *fanout) BucketReassigned(bucket, fromProc, toProc int) {
	for _, s := range f.sinks {
		s.BucketReassigned(bucket, fromProc, toProc)
	}
}

func (f *fanout) ReplayStart(bucket, toProc int) {
	for _, s := range f.sinks {
		s.ReplayStart(bucket, toProc)
	}
}

func (f *fanout) ReplayEnd(bucket, toProc, messages int) {
	for _, s := range f.sinks {
		s.ReplayEnd(bucket, toProc, messages)
	}
}

func (f *fanout) CheckpointStart(bucket, proc int) {
	for _, s := range f.sinks {
		s.CheckpointStart(bucket, proc)
	}
}

func (f *fanout) CheckpointEnd(bucket, proc, tuples int, ok bool) {
	for _, s := range f.sinks {
		s.CheckpointEnd(bucket, proc, tuples, ok)
	}
}

func (f *fanout) LogTruncated(bucket, batches int) {
	for _, s := range f.sinks {
		s.LogTruncated(bucket, batches)
	}
}

func (f *fanout) MemoryPressure(used, budget int64) {
	for _, s := range f.sinks {
		s.MemoryPressure(used, budget)
	}
}

func (f *fanout) BatchDropped(fromProc, bucket, tuples int) {
	for _, s := range f.sinks {
		s.BatchDropped(fromProc, bucket, tuples)
	}
}

func (f *fanout) NetworkViolation(from, to int, tuples int64) {
	for _, s := range f.sinks {
		s.NetworkViolation(from, to, tuples)
	}
}

// The fanout forwards span events to whichever of its sinks implement
// SpanSink, so a Fanout(recorder, counting) still records spans.
func (f *fanout) SpanSend(proc, peer int, pred string, tuples int, span, parent uint64) {
	for _, s := range f.sinks {
		SpanSend(s, proc, peer, pred, tuples, span, parent)
	}
}

func (f *fanout) SpanRecv(proc, peer int, pred string, tuples int, span, parent uint64) {
	for _, s := range f.sinks {
		SpanRecv(s, proc, peer, pred, tuples, span, parent)
	}
}

func (f *fanout) SpanReplay(bucket, toProc int, span uint64) {
	for _, s := range f.sinks {
		SpanReplay(s, bucket, toProc, span)
	}
}

// The fanout forwards IVM events to whichever of its sinks implement
// IVMSink.
func (f *fanout) ApplyStart(inserts, deletes int) {
	for _, s := range f.sinks {
		ApplyStart(s, inserts, deletes)
	}
}

func (f *fanout) ApplyEnd(inserted, deleted, overdeleted, rederived int, firings int64, wall time.Duration, err error) {
	for _, s := range f.sinks {
		ApplyEnd(s, inserted, deleted, overdeleted, rederived, firings, wall, err)
	}
}

func (f *fanout) SnapshotTaken(epoch uint64, tuples int) {
	for _, s := range f.sinks {
		SnapshotTaken(s, epoch, tuples)
	}
}

// The fanout forwards rebalance events to whichever of its sinks
// implement RebalanceSink.
func (f *fanout) MigrationStart(bucket, fromProc, toProc int, skew float64) {
	for _, s := range f.sinks {
		MigrationStart(s, bucket, fromProc, toProc, skew)
	}
}

func (f *fanout) MigrationEnd(bucket, fromProc, toProc, replayed int) {
	for _, s := range f.sinks {
		MigrationEnd(s, bucket, fromProc, toProc, replayed)
	}
}

func (f *fanout) RebalanceRejected(bucket, fromProc, toProc int, reason string) {
	for _, s := range f.sinks {
		RebalanceRejected(s, bucket, fromProc, toProc, reason)
	}
}

// The fanout forwards durable-store events to whichever of its sinks
// implement StoreSink.
func (f *fanout) WALAppend(kind byte, bytes int, synced bool) {
	for _, s := range f.sinks {
		WALAppend(s, kind, bytes, synced)
	}
}

func (f *fanout) SegmentWrite(epoch uint64, bytes int64, tuples int) {
	for _, s := range f.sinks {
		SegmentWrite(s, epoch, bytes, tuples)
	}
}

func (f *fanout) StoreRecovery(segEpoch uint64, walApplies, skipped int, torn, clean bool) {
	for _, s := range f.sinks {
		StoreRecovery(s, segEpoch, walApplies, skipped, torn, clean)
	}
}

// The fanout likewise forwards plan events to whichever of its sinks
// implement PlanSink.
func (f *fanout) PlanCompiled(proc int, pred string, moved, pushdowns int) {
	for _, s := range f.sinks {
		PlanCompiled(s, proc, pred, moved, pushdowns)
	}
}

func (f *fanout) DemandRewrite(goal string, rules, magic int) {
	for _, s := range f.sinks {
		DemandRewrite(s, goal, rules, magic)
	}
}

func (f *fanout) RunEnd(wall time.Duration) {
	for _, s := range f.sinks {
		s.RunEnd(wall)
	}
}
