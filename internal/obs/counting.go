package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counting is the built-in metrics sink. It aggregates the event stream
// into per-processor counters — iteration deltas, rule firings, tuples
// sent and received per channel edge, and busy/idle wall time — without
// taking a lock on the hot path: every counter a worker touches after
// RunStart lives in that worker's own shard and is updated with a single
// atomic add, so workers never contend on shared cache lines and the sink
// is safe under the race detector.
//
// Registration (RunStart) is the only synchronized operation. A stratified
// or multi-phase run may call RunStart several times with the same or a
// growing processor set; counters accumulate across phases.
type Counting struct {
	mu     sync.Mutex
	engine string
	idx    map[int]int // proc id → dense shard index
	shards []*procShard
	wallNs atomic.Int64
	runs   atomic.Int64
	probes atomic.Int64

	// Fault-tolerance counters (distributed engine only).
	heartbeatMisses atomic.Int64
	workerDeaths    atomic.Int64
	reassigned      atomic.Int64
	replayedMsgs    atomic.Int64

	// Bounded-memory counters (distributed engine only).
	checkpoints    atomic.Int64
	ckptRejected   atomic.Int64
	truncatedMsgs  atomic.Int64
	memoryPressure atomic.Int64
	droppedBatches atomic.Int64

	// Conformance-audit counter: edges observed outside the derived
	// minimal network graph.
	violations atomic.Int64

	// Incremental view maintenance counters (live View only).
	ivmApplies     atomic.Int64
	ivmApplyErrors atomic.Int64
	ivmDeltaTuples atomic.Int64
	ivmInserted    atomic.Int64
	ivmDeleted     atomic.Int64
	ivmOverdeleted atomic.Int64
	ivmRederived   atomic.Int64
	ivmFirings     atomic.Int64
	ivmMaintainNs  atomic.Int64
	ivmSnapshots   atomic.Int64
	ivmEpoch       atomic.Int64

	// Durable-store counters (views opened with a state directory, and
	// workers persisting checkpoints locally).
	walAppends       atomic.Int64
	walBytes         atomic.Int64
	walFsyncs        atomic.Int64
	segWrites        atomic.Int64
	segBytes         atomic.Int64
	segEpoch         atomic.Int64
	storeRecoveries  atomic.Int64
	recoverySkipped  atomic.Int64
	recoveryTorn     atomic.Int64
	recoveryReplayed atomic.Int64
}

// procShard holds one processor's counters. All fields after proc are
// written only by that processor's goroutine (or via atomics), never by
// its peers, except edge rows which are written by the *sending* side —
// still a single writer per cell in every engine. The one exception is
// iters: during distributed bucket recovery a not-yet-unwound zombie
// worker and the survivor replaying its bucket drive nodes with the same
// processor id concurrently, so the append takes a short mutex (once per
// local iteration — off the per-tuple hot path).
type procShard struct {
	proc        int
	itersMu     sync.Mutex
	iters       []IterationDelta
	firings     atomic.Int64
	dupFirings  atomic.Int64
	sentTuples  atomic.Int64
	recvTuples  atomic.Int64
	recvDup     atomic.Int64
	recvMsgs    atomic.Int64
	busyNs      atomic.Int64
	idleNs      atomic.Int64
	transitions atomic.Int64
	// lastState/lastNs track the open busy/idle interval: 0 unknown,
	// 1 busy, 2 idle. Atomics, not plain fields: during distributed
	// recovery a not-yet-unwound zombie worker and the survivor adopting
	// its bucket can report under the same processor id concurrently, and
	// RunEnd closes dangling intervals from yet another goroutine.
	lastState atomic.Int32
	lastNs    atomic.Int64

	// edgeTuples[j] / edgeMsgs[j] count traffic on channel t_{proc,q}
	// where q is the proc with dense index j. Written by proc (the
	// sender owns its outgoing rows).
	edgeTuples []atomic.Int64
	edgeMsgs   []atomic.Int64

	// recvEdgeTuples[j] / recvEdgeMsgs[j] count traffic that *arrived*
	// at proc from the proc with dense index j. Written by proc (the
	// receiver owns its incoming rows) — still a single writer per cell.
	// The two matrices agree in a healthy run; they diverge when the
	// routing layer delivers a batch somewhere other than where the
	// sender addressed it, which is exactly what the network-graph
	// auditor needs to see: MessageSent fires with the *intended*
	// destination before the coordinator routes, so a misroute is
	// invisible to the send-side matrix.
	recvEdgeTuples []atomic.Int64
	recvEdgeMsgs   []atomic.Int64
}

// NewCounting returns an empty counting sink.
func NewCounting() *Counting {
	return &Counting{idx: make(map[int]int)}
}

func (c *Counting) RunStart(engine string, procs []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.engine == "" {
		c.engine = engine
	}
	c.runs.Add(1)
	for _, p := range procs {
		if _, ok := c.idx[p]; !ok {
			c.idx[p] = len(c.shards)
			c.shards = append(c.shards, &procShard{proc: p})
		}
	}
	// (Re)size every shard's edge rows to the current universe.
	n := len(c.shards)
	for _, s := range c.shards {
		for len(s.edgeTuples) < n {
			s.edgeTuples = append(s.edgeTuples, atomic.Int64{})
			s.edgeMsgs = append(s.edgeMsgs, atomic.Int64{})
		}
		for len(s.recvEdgeTuples) < n {
			s.recvEdgeTuples = append(s.recvEdgeTuples, atomic.Int64{})
			s.recvEdgeMsgs = append(s.recvEdgeMsgs, atomic.Int64{})
		}
	}
}

// shard returns proc's shard, or nil for an unregistered processor (events
// for unknown procs are dropped rather than corrupting a neighbor's row).
func (c *Counting) shard(proc int) *procShard {
	i, ok := c.idx[proc]
	if !ok {
		return nil
	}
	return c.shards[i]
}

func (c *Counting) IterationStart(proc, iter int) {}

func (c *Counting) IterationEnd(proc, iter, delta int) {
	if s := c.shard(proc); s != nil {
		s.itersMu.Lock()
		s.iters = append(s.iters, IterationDelta{Iter: iter, Delta: delta})
		s.itersMu.Unlock()
	}
}

func (c *Counting) RuleFirings(proc int, pred string, firings, dup int64) {
	if s := c.shard(proc); s != nil {
		s.firings.Add(firings)
		s.dupFirings.Add(dup)
	}
}

func (c *Counting) MessageSent(from, to int, pred string, tuples int) {
	s := c.shard(from)
	if s == nil {
		return
	}
	s.sentTuples.Add(int64(tuples))
	if j, ok := c.idx[to]; ok && j < len(s.edgeTuples) {
		s.edgeTuples[j].Add(int64(tuples))
		s.edgeMsgs[j].Add(1)
	}
}

func (c *Counting) MessageReceived(at, from int, pred string, tuples, dup int) {
	s := c.shard(at)
	if s == nil {
		return
	}
	s.recvTuples.Add(int64(tuples))
	s.recvDup.Add(int64(dup))
	s.recvMsgs.Add(1)
	// Senders outside the registered universe (e.g. the coordinator
	// installing an adopted checkpoint reports from = -1) don't belong to
	// any channel — count the tuples above, skip the matrix.
	if j, ok := c.idx[from]; ok && j < len(s.recvEdgeTuples) {
		s.recvEdgeTuples[j].Add(int64(tuples))
		s.recvEdgeMsgs[j].Add(1)
	}
}

func (c *Counting) WorkerBusy(proc int) { c.transition(proc, 1) }
func (c *Counting) WorkerIdle(proc int) { c.transition(proc, 2) }

func (c *Counting) transition(proc int, state int32) {
	s := c.shard(proc)
	if s == nil {
		return
	}
	now := time.Now().UnixNano()
	// Attribute the elapsed interval to the *previous* state whatever the
	// new one is: a repeated Busy (the distributed worker emits one per
	// drained mailbox round) extends busy time rather than dropping the
	// interval, and an unmatched transition at shutdown is closed by
	// RunEnd the same way.
	prev := s.lastState.Swap(state)
	last := s.lastNs.Swap(now)
	if prev != 0 {
		if d := now - last; d > 0 {
			if prev == 1 {
				s.busyNs.Add(d)
			} else {
				s.idleNs.Add(d)
			}
		}
	}
	if prev != state {
		s.transitions.Add(1)
	}
}

func (c *Counting) TermProbe(detector string, probe int, quiesced bool) {
	c.probes.Add(1)
}

func (c *Counting) HeartbeatMiss(proc, misses int) { c.heartbeatMisses.Add(1) }

func (c *Counting) WorkerDead(proc int, reason string) { c.workerDeaths.Add(1) }

func (c *Counting) BucketReassigned(bucket, fromProc, toProc int) { c.reassigned.Add(1) }

func (c *Counting) ReplayStart(bucket, toProc int) {}

func (c *Counting) ReplayEnd(bucket, toProc, messages int) {
	c.replayedMsgs.Add(int64(messages))
}

func (c *Counting) CheckpointStart(bucket, proc int) {}

func (c *Counting) CheckpointEnd(bucket, proc, tuples int, ok bool) {
	if ok {
		c.checkpoints.Add(1)
	} else {
		c.ckptRejected.Add(1)
	}
}

func (c *Counting) LogTruncated(bucket, batches int) {
	c.truncatedMsgs.Add(int64(batches))
}

func (c *Counting) MemoryPressure(used, budget int64) { c.memoryPressure.Add(1) }

func (c *Counting) BatchDropped(fromProc, bucket, tuples int) { c.droppedBatches.Add(1) }

func (c *Counting) NetworkViolation(from, to int, tuples int64) { c.violations.Add(1) }

// IVMSink implementation: maintenance batches and snapshots of a live View.
func (c *Counting) ApplyStart(inserts, deletes int) {
	c.ivmDeltaTuples.Add(int64(inserts + deletes))
}

func (c *Counting) ApplyEnd(inserted, deleted, overdeleted, rederived int, firings int64, wall time.Duration, err error) {
	if err != nil {
		c.ivmApplyErrors.Add(1)
		return
	}
	c.ivmApplies.Add(1)
	c.ivmInserted.Add(int64(inserted))
	c.ivmDeleted.Add(int64(deleted))
	c.ivmOverdeleted.Add(int64(overdeleted))
	c.ivmRederived.Add(int64(rederived))
	c.ivmFirings.Add(firings)
	c.ivmMaintainNs.Add(int64(wall))
}

func (c *Counting) SnapshotTaken(epoch uint64, tuples int) {
	c.ivmSnapshots.Add(1)
	c.ivmEpoch.Store(int64(epoch))
}

// StoreSink implementation: WAL and segment traffic of a durable view.
func (c *Counting) WALAppend(kind byte, bytes int, synced bool) {
	c.walAppends.Add(1)
	c.walBytes.Add(int64(bytes))
	if synced {
		c.walFsyncs.Add(1)
	}
}

func (c *Counting) SegmentWrite(epoch uint64, bytes int64, tuples int) {
	c.segWrites.Add(1)
	c.segBytes.Add(bytes)
	c.segEpoch.Store(int64(epoch))
}

func (c *Counting) StoreRecovery(segEpoch uint64, walApplies, skipped int, torn, clean bool) {
	c.storeRecoveries.Add(1)
	c.segEpoch.Store(int64(segEpoch))
	c.recoveryReplayed.Add(int64(walApplies))
	c.recoverySkipped.Add(int64(skipped))
	if torn {
		c.recoveryTorn.Add(1)
	}
}

func (c *Counting) RunEnd(wall time.Duration) {
	c.wallNs.Add(int64(wall))
	c.mu.Lock()
	defer c.mu.Unlock()
	// Close any dangling busy/idle interval so totals cover the run — a
	// worker that died busy, or one whose final WorkerIdle never arrived,
	// still has its open interval accounted for.
	now := time.Now().UnixNano()
	for _, s := range c.shards {
		prev := s.lastState.Swap(0)
		last := s.lastNs.Load()
		if d := now - last; d > 0 {
			if prev == 1 {
				s.busyNs.Add(d)
			} else if prev == 2 {
				s.idleNs.Add(d)
			}
		}
	}
}

// Metrics is an immutable snapshot of a Counting sink.
type Metrics struct {
	// Engine names the engine of the first RunStart.
	Engine string `json:"engine"`
	// Runs counts RunStart calls (strata of a stratified run).
	Runs int64 `json:"runs"`
	// WallNs sums the wall-clock time reported by every RunEnd.
	WallNs int64 `json:"wall_ns"`
	// TermProbes counts termination-detector probes.
	TermProbes int64 `json:"term_probes"`
	// HeartbeatMisses counts heartbeat-miss events (distributed engine).
	HeartbeatMisses int64 `json:"heartbeat_misses,omitempty"`
	// WorkerDeaths counts workers the coordinator declared dead.
	WorkerDeaths int64 `json:"worker_deaths,omitempty"`
	// BucketsReassigned counts hash buckets moved to a survivor.
	BucketsReassigned int64 `json:"buckets_reassigned,omitempty"`
	// ReplayedMessages counts logged batches replayed during recovery.
	ReplayedMessages int64 `json:"replayed_messages,omitempty"`
	// Checkpoints counts accepted bucket checkpoints; CheckpointsRejected
	// counts replies discarded for checksum mismatch or injected faults.
	Checkpoints         int64 `json:"checkpoints,omitempty"`
	CheckpointsRejected int64 `json:"checkpoints_rejected,omitempty"`
	// TruncatedBatches counts logged batches dropped after a checkpoint
	// covered them.
	TruncatedBatches int64 `json:"truncated_batches,omitempty"`
	// MemoryPressureEvents counts budget overruns that forced an early
	// checkpoint cycle.
	MemoryPressureEvents int64 `json:"memory_pressure_events,omitempty"`
	// DroppedBatches counts data batches addressed to out-of-range
	// buckets and discarded by the router.
	DroppedBatches int64 `json:"dropped_batches,omitempty"`
	// NetworkViolations counts channels the conformance auditor found in
	// use despite the derived minimal network graph predicting them idle.
	NetworkViolations int64 `json:"network_violations,omitempty"`
	// IVM counters: maintenance batches applied to a live View, the input
	// delta tuples they carried, the net model changes, the DRed
	// overdelete/rederive volume, the derived work enumerated, and total
	// maintenance wall time. IVMEpoch is the latest published view epoch.
	IVMApplies     int64 `json:"ivm_applies,omitempty"`
	IVMApplyErrors int64 `json:"ivm_apply_errors,omitempty"`
	IVMDeltaTuples int64 `json:"ivm_delta_tuples,omitempty"`
	IVMInserted    int64 `json:"ivm_inserted,omitempty"`
	IVMDeleted     int64 `json:"ivm_deleted,omitempty"`
	IVMOverdeleted int64 `json:"ivm_overdeleted,omitempty"`
	IVMRederived   int64 `json:"ivm_rederived,omitempty"`
	IVMFirings     int64 `json:"ivm_firings,omitempty"`
	IVMMaintainNs  int64 `json:"ivm_maintain_ns,omitempty"`
	IVMSnapshots   int64 `json:"ivm_snapshots,omitempty"`
	IVMEpoch       int64 `json:"ivm_epoch,omitempty"`
	// Durable-store counters: WAL appends/bytes and how many appends
	// fsynced, segment compactions and their sizes, the latest segment
	// epoch, and recovery statistics — recoveries performed, WAL records
	// replayed into the model, corrupt records skipped past
	// (skip-and-report mode), and torn tails truncated.
	WALAppends       int64 `json:"wal_appends,omitempty"`
	WALBytes         int64 `json:"wal_bytes,omitempty"`
	WALFsyncs        int64 `json:"wal_fsyncs,omitempty"`
	SegmentWrites    int64 `json:"segment_writes,omitempty"`
	SegmentBytes     int64 `json:"segment_bytes,omitempty"`
	SegmentEpoch     int64 `json:"segment_epoch,omitempty"`
	StoreRecoveries  int64 `json:"store_recoveries,omitempty"`
	RecoveryReplayed int64 `json:"recovery_replayed,omitempty"`
	RecoverySkipped  int64 `json:"recovery_skipped,omitempty"`
	RecoveryTorn     int64 `json:"recovery_torn,omitempty"`
	// Procs holds per-processor counters in registration order.
	Procs []ProcMetrics `json:"procs"`
	// Edges holds one entry per channel that carried at least one
	// message, ordered by (From, To) registration order. Counted on the
	// sending side with the *intended* destination.
	Edges []EdgeMetrics `json:"edges"`
	// RecvEdges is the same matrix counted on the receiving side with
	// the *actual* destination. A divergence from Edges means the
	// routing layer delivered a batch somewhere the sender didn't
	// address it — the network-graph auditor checks both.
	RecvEdges []EdgeMetrics `json:"recv_edges,omitempty"`
}

// ProcMetrics is one processor's aggregate counters.
type ProcMetrics struct {
	Proc           int              `json:"proc"`
	Iterations     []IterationDelta `json:"iterations"`
	Firings        int64            `json:"firings"`
	DupFirings     int64            `json:"dup_firings"`
	TuplesSent     int64            `json:"tuples_sent"`
	TuplesReceived int64            `json:"tuples_received"`
	DupReceived    int64            `json:"dup_received"`
	Messages       int64            `json:"messages_received"`
	BusyNs         int64            `json:"busy_ns"`
	IdleNs         int64            `json:"idle_ns"`
	Transitions    int64            `json:"transitions"`
}

// IterationDelta records how many new tuples one semi-naive iteration
// derived. Iteration counters restart at each stratum or SCC, so the
// sequence is a timeline, not a map.
type IterationDelta struct {
	Iter  int `json:"iter"`
	Delta int `json:"delta"`
}

// EdgeMetrics is the traffic on one directed channel t_{From,To}.
type EdgeMetrics struct {
	From     int   `json:"from"`
	To       int   `json:"to"`
	Messages int64 `json:"messages"`
	Tuples   int64 `json:"tuples"`
}

// Snapshot copies the current counters. Call it after the run completes;
// a snapshot taken mid-run sees a consistent prefix of each counter but
// may tear across counters.
func (c *Counting) Snapshot() *Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := &Metrics{
		Engine:               c.engine,
		Runs:                 c.runs.Load(),
		WallNs:               c.wallNs.Load(),
		TermProbes:           c.probes.Load(),
		HeartbeatMisses:      c.heartbeatMisses.Load(),
		WorkerDeaths:         c.workerDeaths.Load(),
		BucketsReassigned:    c.reassigned.Load(),
		ReplayedMessages:     c.replayedMsgs.Load(),
		Checkpoints:          c.checkpoints.Load(),
		CheckpointsRejected:  c.ckptRejected.Load(),
		TruncatedBatches:     c.truncatedMsgs.Load(),
		MemoryPressureEvents: c.memoryPressure.Load(),
		DroppedBatches:       c.droppedBatches.Load(),
		NetworkViolations:    c.violations.Load(),
		IVMApplies:           c.ivmApplies.Load(),
		IVMApplyErrors:       c.ivmApplyErrors.Load(),
		IVMDeltaTuples:       c.ivmDeltaTuples.Load(),
		IVMInserted:          c.ivmInserted.Load(),
		IVMDeleted:           c.ivmDeleted.Load(),
		IVMOverdeleted:       c.ivmOverdeleted.Load(),
		IVMRederived:         c.ivmRederived.Load(),
		IVMFirings:           c.ivmFirings.Load(),
		IVMMaintainNs:        c.ivmMaintainNs.Load(),
		IVMSnapshots:         c.ivmSnapshots.Load(),
		IVMEpoch:             c.ivmEpoch.Load(),
		WALAppends:           c.walAppends.Load(),
		WALBytes:             c.walBytes.Load(),
		WALFsyncs:            c.walFsyncs.Load(),
		SegmentWrites:        c.segWrites.Load(),
		SegmentBytes:         c.segBytes.Load(),
		SegmentEpoch:         c.segEpoch.Load(),
		StoreRecoveries:      c.storeRecoveries.Load(),
		RecoveryReplayed:     c.recoveryReplayed.Load(),
		RecoverySkipped:      c.recoverySkipped.Load(),
		RecoveryTorn:         c.recoveryTorn.Load(),
		// Non-nil so a communication-free run still serializes as
		// "edges": [] — consumers get a stable document shape.
		Edges: []EdgeMetrics{},
	}
	for _, s := range c.shards {
		s.itersMu.Lock()
		iters := append([]IterationDelta(nil), s.iters...)
		s.itersMu.Unlock()
		pm := ProcMetrics{
			Proc:           s.proc,
			Iterations:     iters,
			Firings:        s.firings.Load(),
			DupFirings:     s.dupFirings.Load(),
			TuplesSent:     s.sentTuples.Load(),
			TuplesReceived: s.recvTuples.Load(),
			DupReceived:    s.recvDup.Load(),
			Messages:       s.recvMsgs.Load(),
			BusyNs:         s.busyNs.Load(),
			IdleNs:         s.idleNs.Load(),
			Transitions:    s.transitions.Load(),
		}
		m.Procs = append(m.Procs, pm)
		for j := range s.edgeTuples {
			if n := s.edgeMsgs[j].Load(); n > 0 {
				m.Edges = append(m.Edges, EdgeMetrics{
					From:     s.proc,
					To:       c.shards[j].proc,
					Messages: n,
					Tuples:   s.edgeTuples[j].Load(),
				})
			}
		}
		for j := range s.recvEdgeTuples {
			if n := s.recvEdgeMsgs[j].Load(); n > 0 {
				m.RecvEdges = append(m.RecvEdges, EdgeMetrics{
					From:     c.shards[j].proc,
					To:       s.proc,
					Messages: n,
					Tuples:   s.recvEdgeTuples[j].Load(),
				})
			}
		}
	}
	return m
}
