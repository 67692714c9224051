package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event is one recorded engine event. Kind selects which of the optional
// fields are meaningful; TNs is nanoseconds since the recorder saw its
// first event (zeroed by Canonical).
type Event struct {
	Seq      int    `json:"seq"`
	TNs      int64  `json:"t_ns"`
	Kind     string `json:"kind"`
	Engine   string `json:"engine,omitempty"`
	Procs    []int  `json:"procs,omitempty"`
	Proc     int    `json:"proc,omitempty"`
	Peer     int    `json:"peer,omitempty"`
	Pred     string `json:"pred,omitempty"`
	Iter     int    `json:"iter,omitempty"`
	N        int64  `json:"n,omitempty"`
	Dup      int64  `json:"dup,omitempty"`
	Detector string `json:"detector,omitempty"`
	Quiesced bool   `json:"quiesced,omitempty"`
	WallNs   int64  `json:"wall_ns,omitempty"`
	Bucket   int    `json:"bucket,omitempty"`
	Reason   string `json:"reason,omitempty"`
	OK       bool   `json:"ok,omitempty"`
	Budget   int64  `json:"budget,omitempty"`
	// Span and Parent causally link distributed batch events: Span is the
	// batch's wire-envelope id, Parent the id of the batch whose
	// processing produced it (0 for initialization sends).
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	// Skew is the per-bucket load skew ratio that triggered a migration.
	Skew float64 `json:"skew,omitempty"`
}

// Event kinds emitted by the engines.
const (
	KindRunStart  = "run_start"
	KindIterStart = "iter_start"
	KindIterEnd   = "iter_end"
	KindFirings   = "firings"
	KindSend      = "send"
	KindRecv      = "recv"
	KindBusy      = "busy"
	KindIdle      = "idle"
	KindProbe     = "probe"
	KindRunEnd    = "run_end"

	// Fault-tolerance kinds (distributed engine only).
	KindHeartbeatMiss    = "heartbeat_miss"
	KindWorkerDead       = "worker_dead"
	KindBucketReassigned = "bucket_reassigned"
	KindReplayStart      = "replay_start"
	KindReplayEnd        = "replay_end"

	// Bounded-memory kinds (distributed engine only).
	KindCheckpointStart = "checkpoint_start"
	KindCheckpointEnd   = "checkpoint_end"
	KindLogTruncated    = "log_truncated"
	KindMemoryPressure  = "memory_pressure"
	KindBatchDropped    = "batch_dropped"

	// Adaptive load-balancing kinds (distributed engine only; see
	// RebalanceSink).
	KindMigrationStart    = "migration_start"
	KindMigrationEnd      = "migration_end"
	KindRebalanceRejected = "rebalance_rejected"

	// Causal-span kinds (distributed engine only; see SpanSink).
	KindSpanSend   = "span_send"
	KindSpanRecv   = "span_recv"
	KindSpanReplay = "span_replay"

	// Conformance-audit kind.
	KindNetworkViolation = "network_violation"
)

// String renders the event without its timestamp or sequence number — the
// schedule-independent form the golden trace test compares.
func (e Event) String() string {
	switch e.Kind {
	case KindRunStart:
		return fmt.Sprintf("run_start engine=%s procs=%v", e.Engine, e.Procs)
	case KindIterStart:
		return fmt.Sprintf("iter_start proc=%d iter=%d", e.Proc, e.Iter)
	case KindIterEnd:
		return fmt.Sprintf("iter_end proc=%d iter=%d delta=%d", e.Proc, e.Iter, e.N)
	case KindFirings:
		return fmt.Sprintf("firings proc=%d pred=%s n=%d dup=%d", e.Proc, e.Pred, e.N, e.Dup)
	case KindSend:
		return fmt.Sprintf("send from=%d to=%d pred=%s n=%d", e.Proc, e.Peer, e.Pred, e.N)
	case KindRecv:
		return fmt.Sprintf("recv at=%d from=%d pred=%s n=%d dup=%d", e.Proc, e.Peer, e.Pred, e.N, e.Dup)
	case KindBusy:
		return fmt.Sprintf("busy proc=%d", e.Proc)
	case KindIdle:
		return fmt.Sprintf("idle proc=%d", e.Proc)
	case KindProbe:
		return fmt.Sprintf("probe detector=%s n=%d quiesced=%v", e.Detector, e.Iter, e.Quiesced)
	case KindHeartbeatMiss:
		return fmt.Sprintf("heartbeat_miss proc=%d misses=%d", e.Proc, e.N)
	case KindWorkerDead:
		return fmt.Sprintf("worker_dead proc=%d reason=%s", e.Proc, e.Reason)
	case KindBucketReassigned:
		return fmt.Sprintf("bucket_reassigned bucket=%d from=%d to=%d", e.Bucket, e.Proc, e.Peer)
	case KindReplayStart:
		return fmt.Sprintf("replay_start bucket=%d to=%d", e.Bucket, e.Peer)
	case KindReplayEnd:
		return fmt.Sprintf("replay_end bucket=%d to=%d n=%d", e.Bucket, e.Peer, e.N)
	case KindCheckpointStart:
		return fmt.Sprintf("checkpoint_start bucket=%d proc=%d", e.Bucket, e.Proc)
	case KindCheckpointEnd:
		return fmt.Sprintf("checkpoint_end bucket=%d proc=%d tuples=%d ok=%v", e.Bucket, e.Proc, e.N, e.OK)
	case KindLogTruncated:
		return fmt.Sprintf("log_truncated bucket=%d n=%d", e.Bucket, e.N)
	case KindMemoryPressure:
		return fmt.Sprintf("memory_pressure used=%d budget=%d", e.N, e.Budget)
	case KindBatchDropped:
		return fmt.Sprintf("batch_dropped from=%d bucket=%d n=%d", e.Proc, e.Bucket, e.N)
	case KindMigrationStart:
		return fmt.Sprintf("migration_start bucket=%d from=%d to=%d skew=%.2f", e.Bucket, e.Proc, e.Peer, e.Skew)
	case KindMigrationEnd:
		return fmt.Sprintf("migration_end bucket=%d from=%d to=%d n=%d", e.Bucket, e.Proc, e.Peer, e.N)
	case KindRebalanceRejected:
		return fmt.Sprintf("rebalance_rejected bucket=%d from=%d to=%d reason=%s", e.Bucket, e.Proc, e.Peer, e.Reason)
	case KindSpanSend:
		return fmt.Sprintf("span_send from=%d to=%d pred=%s n=%d span=%x parent=%x", e.Proc, e.Peer, e.Pred, e.N, e.Span, e.Parent)
	case KindSpanRecv:
		return fmt.Sprintf("span_recv at=%d from=%d pred=%s n=%d span=%x parent=%x", e.Proc, e.Peer, e.Pred, e.N, e.Span, e.Parent)
	case KindSpanReplay:
		return fmt.Sprintf("span_replay bucket=%d to=%d span=%x", e.Bucket, e.Peer, e.Span)
	case KindNetworkViolation:
		return fmt.Sprintf("network_violation from=%d to=%d tuples=%d", e.Proc, e.Peer, e.N)
	case KindRunEnd:
		return "run_end"
	}
	return e.Kind
}

// Recorder captures the full event stream in memory. Unlike Counting it
// takes a mutex per event, so it is meant for traces and debugging, not
// for overhead-sensitive measurement.
type Recorder struct {
	mu     sync.Mutex
	start  time.Time
	events []Event
}

// NewRecorder returns an empty trace recorder.
func NewRecorder() *Recorder { return &Recorder{} }

func (r *Recorder) add(e Event) {
	r.mu.Lock()
	if r.start.IsZero() {
		r.start = time.Now()
	}
	e.Seq = len(r.events)
	e.TNs = time.Since(r.start).Nanoseconds()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func (r *Recorder) RunStart(engine string, procs []int) {
	r.add(Event{Kind: KindRunStart, Engine: engine, Procs: append([]int(nil), procs...)})
}

func (r *Recorder) IterationStart(proc, iter int) {
	r.add(Event{Kind: KindIterStart, Proc: proc, Iter: iter})
}

func (r *Recorder) IterationEnd(proc, iter, delta int) {
	r.add(Event{Kind: KindIterEnd, Proc: proc, Iter: iter, N: int64(delta)})
}

func (r *Recorder) RuleFirings(proc int, pred string, firings, dup int64) {
	r.add(Event{Kind: KindFirings, Proc: proc, Pred: pred, N: firings, Dup: dup})
}

func (r *Recorder) MessageSent(from, to int, pred string, tuples int) {
	r.add(Event{Kind: KindSend, Proc: from, Peer: to, Pred: pred, N: int64(tuples)})
}

func (r *Recorder) MessageReceived(at, from int, pred string, tuples, dup int) {
	r.add(Event{Kind: KindRecv, Proc: at, Peer: from, Pred: pred, N: int64(tuples), Dup: int64(dup)})
}

func (r *Recorder) WorkerBusy(proc int) { r.add(Event{Kind: KindBusy, Proc: proc}) }
func (r *Recorder) WorkerIdle(proc int) { r.add(Event{Kind: KindIdle, Proc: proc}) }

func (r *Recorder) TermProbe(detector string, probe int, quiesced bool) {
	r.add(Event{Kind: KindProbe, Detector: detector, Iter: probe, Quiesced: quiesced})
}

func (r *Recorder) HeartbeatMiss(proc, misses int) {
	r.add(Event{Kind: KindHeartbeatMiss, Proc: proc, N: int64(misses)})
}

func (r *Recorder) WorkerDead(proc int, reason string) {
	r.add(Event{Kind: KindWorkerDead, Proc: proc, Reason: reason})
}

func (r *Recorder) BucketReassigned(bucket, fromProc, toProc int) {
	r.add(Event{Kind: KindBucketReassigned, Bucket: bucket, Proc: fromProc, Peer: toProc})
}

func (r *Recorder) ReplayStart(bucket, toProc int) {
	r.add(Event{Kind: KindReplayStart, Bucket: bucket, Peer: toProc})
}

func (r *Recorder) ReplayEnd(bucket, toProc, messages int) {
	r.add(Event{Kind: KindReplayEnd, Bucket: bucket, Peer: toProc, N: int64(messages)})
}

func (r *Recorder) CheckpointStart(bucket, proc int) {
	r.add(Event{Kind: KindCheckpointStart, Bucket: bucket, Proc: proc})
}

func (r *Recorder) CheckpointEnd(bucket, proc, tuples int, ok bool) {
	r.add(Event{Kind: KindCheckpointEnd, Bucket: bucket, Proc: proc, N: int64(tuples), OK: ok})
}

func (r *Recorder) LogTruncated(bucket, batches int) {
	r.add(Event{Kind: KindLogTruncated, Bucket: bucket, N: int64(batches)})
}

func (r *Recorder) MemoryPressure(used, budget int64) {
	r.add(Event{Kind: KindMemoryPressure, N: used, Budget: budget})
}

func (r *Recorder) BatchDropped(fromProc, bucket, tuples int) {
	r.add(Event{Kind: KindBatchDropped, Proc: fromProc, Bucket: bucket, N: int64(tuples)})
}

func (r *Recorder) NetworkViolation(from, to int, tuples int64) {
	r.add(Event{Kind: KindNetworkViolation, Proc: from, Peer: to, N: tuples})
}

// The Recorder implements RebalanceSink: migration events appear inline in
// the stream, giving the Chrome trace exporter its migration slices.
func (r *Recorder) MigrationStart(bucket, fromProc, toProc int, skew float64) {
	r.add(Event{Kind: KindMigrationStart, Bucket: bucket, Proc: fromProc, Peer: toProc, Skew: skew})
}

func (r *Recorder) MigrationEnd(bucket, fromProc, toProc, replayed int) {
	r.add(Event{Kind: KindMigrationEnd, Bucket: bucket, Proc: fromProc, Peer: toProc, N: int64(replayed)})
}

func (r *Recorder) RebalanceRejected(bucket, fromProc, toProc int, reason string) {
	r.add(Event{Kind: KindRebalanceRejected, Bucket: bucket, Proc: fromProc, Peer: toProc, Reason: reason})
}

// The Recorder implements SpanSink: span events appear inline in the
// stream, giving the Chrome trace exporter its flow-event endpoints.
func (r *Recorder) SpanSend(proc, peer int, pred string, tuples int, span, parent uint64) {
	r.add(Event{Kind: KindSpanSend, Proc: proc, Peer: peer, Pred: pred, N: int64(tuples), Span: span, Parent: parent})
}

func (r *Recorder) SpanRecv(proc, peer int, pred string, tuples int, span, parent uint64) {
	r.add(Event{Kind: KindSpanRecv, Proc: proc, Peer: peer, Pred: pred, N: int64(tuples), Span: span, Parent: parent})
}

func (r *Recorder) SpanReplay(bucket, toProc int, span uint64) {
	r.add(Event{Kind: KindSpanReplay, Bucket: bucket, Peer: toProc, Span: span})
}

func (r *Recorder) RunEnd(wall time.Duration) {
	r.add(Event{Kind: KindRunEnd, WallNs: int64(wall)})
}

// Events returns a copy of the recorded stream.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Canonical returns the stream with every timing field zeroed, the form a
// deterministic scheduler reproduces exactly run-to-run.
func (r *Recorder) Canonical() []Event {
	ev := r.Events()
	for i := range ev {
		ev[i].TNs = 0
		ev[i].WallNs = 0
	}
	return ev
}

// CanonicalStrings renders Canonical() one event per line.
func (r *Recorder) CanonicalStrings() []string {
	ev := r.Canonical()
	out := make([]string, len(ev))
	for i, e := range ev {
		out[i] = e.String()
	}
	return out
}

// WriteJSON writes the recorded events as one indented JSON array.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Events())
}
