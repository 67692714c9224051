package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"parlog/internal/metrics"
)

// Histogram bounds shared by the MetricsSink's instruments. Iteration
// latencies span microseconds (in-process lockstep) to tens of seconds
// (distributed runs under fault injection); tuple-count distributions span
// single tuples to millions.
var (
	latencyBounds = metrics.ExpBuckets(1e-5, 4, 12) // 10µs … ~167s
	sizeBounds    = metrics.ExpBuckets(1, 4, 12)    // 1 … ~4.2M tuples
)

// MetricsSink adapts the EventSink stream into a metrics.Registry: the
// live half of the observability layer. Where Counting aggregates for a
// post-run snapshot, MetricsSink feeds instruments an HTTP endpoint
// scrapes mid-run, adding the paper-facing distributions the snapshot
// lacks — per-bucket load histograms with max/mean skew gauges for the
// chosen discriminating function (Section 4's load-balance concern) and a
// dense per-channel t_{i,j} tuple-volume matrix (Section 5's network
// graph, observed).
//
// Concurrency mirrors Counting: registration happens under a mutex at
// RunStart; every hot-path update is a single atomic on an instrument the
// reporting processor owns. Skew gauges are derived lazily by an
// OnCollect hook, so scrapes — not workers — pay for the division.
type MetricsSink struct {
	reg *metrics.Registry

	mu     sync.Mutex
	idx    map[int]int
	shards []*msShard

	runsTotal  *metrics.Counter
	runActive  *metrics.Gauge
	workers    *metrics.Gauge
	wallSec    *metrics.Counter // summed run wall time, milliseconds
	iterations *metrics.Counter
	iterSec    *metrics.Histogram
	iterDelta  *metrics.Histogram
	firings    *metrics.Counter
	dupFirings *metrics.Counter
	sentTuples *metrics.Counter
	recvTuples *metrics.Counter
	recvDup    *metrics.Counter
	sentMsgs   *metrics.Counter
	recvMsgs   *metrics.Counter
	batchSize  *metrics.Histogram
	busyNs     *metrics.Counter
	idleNs     *metrics.Counter
	probes     *metrics.Counter

	heartbeatMisses *metrics.Counter
	workerDeaths    *metrics.Counter
	reassigned      *metrics.Counter
	replayed        *metrics.Counter
	ckptOK          *metrics.Counter
	ckptRejected    *metrics.Counter
	truncated       *metrics.Counter
	memPressure     *metrics.Counter
	dropped         *metrics.Counter
	violations      *metrics.Counter

	planReordered *metrics.Counter
	planPushdowns *metrics.Counter
	planDemand    *metrics.Counter

	ivmApplies     *metrics.Counter
	ivmApplyErrors *metrics.Counter
	ivmDeltaIns    *metrics.Counter
	ivmDeltaDel    *metrics.Counter
	ivmInserted    *metrics.Counter
	ivmDeleted     *metrics.Counter
	ivmOverdeleted *metrics.Counter
	ivmRederived   *metrics.Counter
	ivmFirings     *metrics.Counter
	ivmMaintainSec *metrics.Histogram
	ivmDeltaSize   *metrics.Histogram
	ivmSnapshots   *metrics.Counter
	ivmEpoch       *metrics.Gauge

	walAppends      *metrics.Counter
	walBytes        *metrics.Counter
	walFsyncs       *metrics.Counter
	segWrites       *metrics.Counter
	segBytes        *metrics.Counter
	segEpochG       *metrics.Gauge
	storeRecoveries *metrics.Counter
	walReplayed     *metrics.Counter
	walSkipped      *metrics.Counter
	walTorn         *metrics.Counter

	bucketLoad  *metrics.Histogram // tuples derived per hash bucket, fed per run
	skewMax     *metrics.Gauge     // max load / mean load across buckets
	skewMean    *metrics.Gauge     // mean load across buckets
	loadSampled atomic.Int64       // per-proc loads already folded into bucketLoad

	rebMigrations *metrics.Counter
	rebRejected   *metrics.Counter
	rebReplayed   *metrics.Counter
	rebLastSkew   *metrics.Gauge
}

// msShard is one processor's owned state: the open iteration's start time,
// its cumulative derived-tuple load, busy/idle interval tracking, and its
// outgoing row of the channel matrix.
type msShard struct {
	proc        int
	iterStartNs atomic.Int64
	load        atomic.Int64 // Σ iteration deltas: tuples this bucket derived
	loadGauge   *metrics.Gauge
	lastState   atomic.Int32
	lastNs      atomic.Int64
	edgeTuples  []*metrics.Counter
	edgeMsgs    []*metrics.Counter
}

// NewMetricsSink builds a sink feeding reg. All run-scoped instruments are
// registered eagerly so a scrape before the first event still sees the
// full schema; per-processor and per-channel instruments appear at
// RunStart, when the processor universe is known.
func NewMetricsSink(reg *metrics.Registry) *MetricsSink {
	m := &MetricsSink{
		reg: reg,
		idx: make(map[int]int),

		runsTotal:  reg.Counter("parlog_runs_total", "evaluation runs (strata count separately)"),
		runActive:  reg.Gauge("parlog_run_active", "1 while a run is executing"),
		workers:    reg.Gauge("parlog_workers", "processors of the current run"),
		wallSec:    reg.Counter("parlog_run_wall_ms_total", "summed run wall time in milliseconds"),
		iterations: reg.Counter("parlog_iterations_total", "semi-naive iterations across processors"),
		iterSec:    reg.Histogram("parlog_iteration_seconds", "wall time of one processor's semi-naive iteration", latencyBounds),
		iterDelta:  reg.Histogram("parlog_iteration_delta_tuples", "new tuples one iteration derived", sizeBounds),
		firings:    reg.Counter("parlog_rule_firings_total", "successful ground substitutions"),
		dupFirings: reg.Counter("parlog_duplicate_firings_total", "firings rederiving a known tuple (the paper's redundancy currency)"),
		sentTuples: reg.Counter("parlog_tuples_sent_total", "tuples shipped between processors"),
		recvTuples: reg.Counter("parlog_tuples_received_total", "tuples arriving at processors"),
		recvDup:    reg.Counter("parlog_duplicate_tuples_received_total", "received tuples the consumer already knew"),
		sentMsgs:   reg.Counter("parlog_messages_sent_total", "tuple batches shipped between processors"),
		recvMsgs:   reg.Counter("parlog_messages_received_total", "tuple batches arriving at processors"),
		batchSize:  reg.Histogram("parlog_batch_tuples", "tuples per shipped batch", sizeBounds),
		busyNs:     reg.Counter("parlog_worker_busy_ns_total", "nanoseconds processors spent evaluating"),
		idleNs:     reg.Counter("parlog_worker_idle_ns_total", "nanoseconds processors spent waiting for messages"),
		probes:     reg.Counter("parlog_term_probes_total", "termination-detector probes"),

		heartbeatMisses: reg.Counter("parlog_heartbeat_misses_total", "heartbeat intervals a worker stayed silent"),
		workerDeaths:    reg.Counter("parlog_worker_deaths_total", "workers declared dead by the coordinator"),
		reassigned:      reg.Counter("parlog_buckets_reassigned_total", "hash buckets moved to a survivor"),
		replayed:        reg.Counter("parlog_replayed_batches_total", "logged batches replayed during recovery"),
		ckptOK:          reg.Counter("parlog_checkpoints_total", "bucket checkpoint replies", metrics.L("ok", "true")),
		ckptRejected:    reg.Counter("parlog_checkpoints_total", "bucket checkpoint replies", metrics.L("ok", "false")),
		truncated:       reg.Counter("parlog_truncated_batches_total", "logged batches dropped after a checkpoint covered them"),
		memPressure:     reg.Counter("parlog_memory_pressure_total", "coordinator memory-budget overruns"),
		dropped:         reg.Counter("parlog_dropped_batches_total", "data batches addressed to out-of-range buckets"),
		violations:      reg.Counter("parlog_network_violations_total", "channels used despite the minimal network graph predicting them idle"),

		planReordered: reg.Counter("parlog_plan_reordered_atoms_total", "body atoms the planner moved away from their textual join position"),
		planPushdowns: reg.Counter("parlog_plan_pushdown_constraints_total", "constraints checked before the final join level of their plan"),
		planDemand:    reg.Counter("parlog_plan_demand_rules_total", "magic/seed rules produced by demand (magic-sets) rewrites"),

		ivmApplies:     reg.Counter("parlog_ivm_applies_total", "maintenance batches applied", metrics.L("ok", "true")),
		ivmApplyErrors: reg.Counter("parlog_ivm_applies_total", "maintenance batches applied", metrics.L("ok", "false")),
		ivmDeltaIns:    reg.Counter("parlog_ivm_delta_tuples_total", "EDB delta tuples submitted to Apply", metrics.L("op", "insert")),
		ivmDeltaDel:    reg.Counter("parlog_ivm_delta_tuples_total", "EDB delta tuples submitted to Apply", metrics.L("op", "delete")),
		ivmInserted:    reg.Counter("parlog_ivm_inserted_total", "tuples that became live across maintenance batches"),
		ivmDeleted:     reg.Counter("parlog_ivm_deleted_total", "tuples that became dead across maintenance batches"),
		ivmOverdeleted: reg.Counter("parlog_ivm_overdeleted_total", "tuples killed by the DRed overdeletion pass"),
		ivmRederived:   reg.Counter("parlog_ivm_rederived_total", "overdeleted tuples revived by the rederivation pass"),
		ivmFirings:     reg.Counter("parlog_ivm_firings_total", "ground substitutions enumerated by maintenance passes"),
		ivmMaintainSec: reg.Histogram("parlog_ivm_maintain_seconds", "wall time of one maintenance batch", latencyBounds),
		ivmDeltaSize:   reg.Histogram("parlog_ivm_delta_tuples", "EDB delta tuples per maintenance batch", sizeBounds),
		ivmSnapshots:   reg.Counter("parlog_ivm_snapshots_total", "immutable view snapshots published"),
		ivmEpoch:       reg.Gauge("parlog_ivm_epoch", "latest published view epoch"),

		walAppends:      reg.Counter("parlog_wal_appends_total", "records appended to the write-ahead log"),
		walBytes:        reg.Counter("parlog_wal_bytes_total", "framed bytes appended to the write-ahead log"),
		walFsyncs:       reg.Counter("parlog_wal_fsyncs_total", "WAL appends that forced an fsync before acknowledgment"),
		segWrites:       reg.Counter("parlog_segment_writes_total", "segment snapshots compacted to disk"),
		segBytes:        reg.Counter("parlog_segment_bytes_total", "bytes written as segment snapshots"),
		segEpochG:       reg.Gauge("parlog_segment_epoch", "epoch of the newest durable segment"),
		storeRecoveries: reg.Counter("parlog_store_recoveries_total", "cold-start recoveries from the state directory"),
		walReplayed:     reg.Counter("parlog_wal_replayed_records_total", "WAL apply records folded into the model during recovery"),
		walSkipped:      reg.Counter("parlog_wal_skipped_records_total", "corrupt records skipped past during recovery (skip-and-report mode)"),
		walTorn:         reg.Counter("parlog_wal_torn_tails_total", "recoveries that truncated a torn WAL tail"),

		bucketLoad: reg.Histogram("parlog_bucket_load_tuples", "tuples derived per hash bucket over completed runs", sizeBounds),
		skewMax:    reg.Gauge("parlog_load_skew_max_ratio", "max bucket load / mean bucket load of the current processor set"),
		skewMean:   reg.Gauge("parlog_load_skew_mean_tuples", "mean tuples derived per hash bucket"),

		rebMigrations: reg.Counter("parlog_rebalance_migrations_total", "live bucket migrations applied by the skew-triggered rebalancer"),
		rebRejected:   reg.Counter("parlog_rebalance_rejected_total", "candidate repartitionings rejected by the transferability check"),
		rebReplayed:   reg.Counter("parlog_rebalance_replayed_batches_total", "logged batches replayed to a bucket's new owner during migrations"),
		rebLastSkew:   reg.Gauge("parlog_rebalance_last_skew", "window skew ratio of the most recent migration trigger"),
	}
	reg.OnCollect(m.collectSkew)
	return m
}

// Registry returns the backing registry, for callers wiring the sink and
// the HTTP server separately.
func (m *MetricsSink) Registry() *metrics.Registry { return m.reg }

// collectSkew refreshes the load-skew gauges from the per-shard loads —
// run at scrape time, off the hot path. Skew is max/mean over the buckets
// that exist; a perfectly balanced discriminating function scores 1.0.
func (m *MetricsSink) collectSkew() {
	m.mu.Lock()
	shards := append([]*msShard(nil), m.shards...)
	m.mu.Unlock()
	if len(shards) == 0 {
		return
	}
	var total, max int64
	for _, s := range shards {
		l := s.load.Load()
		total += l
		if l > max {
			max = l
		}
	}
	mean := float64(total) / float64(len(shards))
	m.skewMean.Set(mean)
	if mean > 0 {
		m.skewMax.Set(float64(max) / mean)
	} else {
		m.skewMax.Set(0)
	}
}

func (m *MetricsSink) shard(proc int) *msShard {
	i, ok := m.idx[proc]
	if !ok {
		return nil
	}
	return m.shards[i]
}

func (m *MetricsSink) RunStart(engine string, procs []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runsTotal.Inc()
	m.runActive.Set(1)
	for _, p := range procs {
		if _, ok := m.idx[p]; !ok {
			m.idx[p] = len(m.shards)
			m.shards = append(m.shards, &msShard{
				proc:      p,
				loadGauge: m.reg.Gauge("parlog_bucket_load_tuples_current", "tuples derived so far by each hash bucket", metrics.L("proc", itoa(p))),
			})
		}
	}
	// (Re)build every shard's outgoing channel row over the grown
	// universe: a dense t_{i,j} matrix, registered once per pair.
	n := len(m.shards)
	for _, s := range m.shards {
		for len(s.edgeTuples) < n {
			to := m.shards[len(s.edgeTuples)].proc
			s.edgeTuples = append(s.edgeTuples, m.reg.Counter(
				"parlog_channel_tuples_total", "tuples shipped on channel t_{from,to}",
				metrics.L("from", itoa(s.proc)), metrics.L("to", itoa(to))))
			s.edgeMsgs = append(s.edgeMsgs, m.reg.Counter(
				"parlog_channel_messages_total", "batches shipped on channel t_{from,to}",
				metrics.L("from", itoa(s.proc)), metrics.L("to", itoa(to))))
		}
	}
	m.workers.Set(float64(n))
}

func (m *MetricsSink) IterationStart(proc, iter int) {
	if s := m.shard(proc); s != nil {
		s.iterStartNs.Store(time.Now().UnixNano())
	}
}

func (m *MetricsSink) IterationEnd(proc, iter, delta int) {
	s := m.shard(proc)
	if s == nil {
		return
	}
	m.iterations.Inc()
	if start := s.iterStartNs.Swap(0); start != 0 {
		m.iterSec.Observe(float64(time.Now().UnixNano()-start) / 1e9)
	}
	m.iterDelta.Observe(float64(delta))
	s.loadGauge.Set(float64(s.load.Add(int64(delta))))
}

func (m *MetricsSink) RuleFirings(proc int, pred string, firings, dup int64) {
	m.firings.Add(firings)
	m.dupFirings.Add(dup)
}

func (m *MetricsSink) MessageSent(from, to int, pred string, tuples int) {
	m.sentTuples.Add(int64(tuples))
	m.sentMsgs.Inc()
	m.batchSize.Observe(float64(tuples))
	s := m.shard(from)
	if s == nil {
		return
	}
	if j, ok := m.idx[to]; ok && j < len(s.edgeTuples) {
		s.edgeTuples[j].Add(int64(tuples))
		s.edgeMsgs[j].Inc()
	}
}

func (m *MetricsSink) MessageReceived(at, from int, pred string, tuples, dup int) {
	m.recvTuples.Add(int64(tuples))
	m.recvDup.Add(int64(dup))
	m.recvMsgs.Inc()
}

func (m *MetricsSink) WorkerBusy(proc int) { m.transition(proc, 1) }
func (m *MetricsSink) WorkerIdle(proc int) { m.transition(proc, 2) }

func (m *MetricsSink) transition(proc int, state int32) {
	s := m.shard(proc)
	if s == nil {
		return
	}
	now := time.Now().UnixNano()
	prev := s.lastState.Swap(state)
	last := s.lastNs.Swap(now)
	if prev != 0 {
		if d := now - last; d > 0 {
			if prev == 1 {
				m.busyNs.Add(d)
			} else {
				m.idleNs.Add(d)
			}
		}
	}
}

func (m *MetricsSink) TermProbe(detector string, probe int, quiesced bool) { m.probes.Inc() }

func (m *MetricsSink) HeartbeatMiss(proc, misses int) { m.heartbeatMisses.Inc() }

func (m *MetricsSink) WorkerDead(proc int, reason string) { m.workerDeaths.Inc() }

func (m *MetricsSink) BucketReassigned(bucket, fromProc, toProc int) { m.reassigned.Inc() }

func (m *MetricsSink) ReplayStart(bucket, toProc int) {}

func (m *MetricsSink) ReplayEnd(bucket, toProc, messages int) {
	m.replayed.Add(int64(messages))
}

func (m *MetricsSink) CheckpointStart(bucket, proc int) {}

func (m *MetricsSink) CheckpointEnd(bucket, proc, tuples int, ok bool) {
	if ok {
		m.ckptOK.Inc()
	} else {
		m.ckptRejected.Inc()
	}
}

func (m *MetricsSink) LogTruncated(bucket, batches int) { m.truncated.Add(int64(batches)) }

func (m *MetricsSink) MemoryPressure(used, budget int64) { m.memPressure.Inc() }

func (m *MetricsSink) BatchDropped(fromProc, bucket, tuples int) { m.dropped.Inc() }

func (m *MetricsSink) NetworkViolation(from, to int, tuples int64) { m.violations.Inc() }

// MigrationStart, MigrationEnd and RebalanceRejected implement the optional
// RebalanceSink extension: the adaptive load balancer's traffic.
func (m *MetricsSink) MigrationStart(bucket, fromProc, toProc int, skew float64) {
	m.rebLastSkew.Set(skew)
}

func (m *MetricsSink) MigrationEnd(bucket, fromProc, toProc, replayed int) {
	m.rebMigrations.Inc()
	m.rebReplayed.Add(int64(replayed))
}

func (m *MetricsSink) RebalanceRejected(bucket, fromProc, toProc int, reason string) {
	m.rebRejected.Inc()
}

// PlanCompiled and DemandRewrite implement the optional PlanSink extension.
func (m *MetricsSink) PlanCompiled(proc int, pred string, moved, pushdowns int) {
	m.planReordered.Add(int64(moved))
	m.planPushdowns.Add(int64(pushdowns))
}

func (m *MetricsSink) DemandRewrite(goal string, rules, magic int) {
	m.planDemand.Add(int64(magic))
}

// ApplyStart, ApplyEnd and SnapshotTaken implement the optional IVMSink
// extension: the live-view counterpart of the run instruments.
func (m *MetricsSink) ApplyStart(inserts, deletes int) {
	m.ivmDeltaIns.Add(int64(inserts))
	m.ivmDeltaDel.Add(int64(deletes))
	m.ivmDeltaSize.Observe(float64(inserts + deletes))
}

func (m *MetricsSink) ApplyEnd(inserted, deleted, overdeleted, rederived int, firings int64, wall time.Duration, err error) {
	if err != nil {
		m.ivmApplyErrors.Inc()
		return
	}
	m.ivmApplies.Inc()
	m.ivmInserted.Add(int64(inserted))
	m.ivmDeleted.Add(int64(deleted))
	m.ivmOverdeleted.Add(int64(overdeleted))
	m.ivmRederived.Add(int64(rederived))
	m.ivmFirings.Add(firings)
	m.ivmMaintainSec.Observe(wall.Seconds())
}

func (m *MetricsSink) SnapshotTaken(epoch uint64, tuples int) {
	m.ivmSnapshots.Inc()
	m.ivmEpoch.Set(float64(epoch))
}

// WALAppend, SegmentWrite and StoreRecovery implement the optional
// StoreSink extension: durability traffic of a view opened with a state
// directory.
func (m *MetricsSink) WALAppend(kind byte, bytes int, synced bool) {
	m.walAppends.Inc()
	m.walBytes.Add(int64(bytes))
	if synced {
		m.walFsyncs.Inc()
	}
}

func (m *MetricsSink) SegmentWrite(epoch uint64, bytes int64, tuples int) {
	m.segWrites.Inc()
	m.segBytes.Add(bytes)
	m.segEpochG.Set(float64(epoch))
}

func (m *MetricsSink) StoreRecovery(segEpoch uint64, walApplies, skipped int, torn, clean bool) {
	m.storeRecoveries.Inc()
	m.segEpochG.Set(float64(segEpoch))
	m.walReplayed.Add(int64(walApplies))
	m.walSkipped.Add(int64(skipped))
	if torn {
		m.walTorn.Inc()
	}
}

func (m *MetricsSink) RunEnd(wall time.Duration) {
	m.runActive.Set(0)
	m.wallSec.Add(wall.Milliseconds())
	m.mu.Lock()
	shards := append([]*msShard(nil), m.shards...)
	m.mu.Unlock()
	// Close dangling busy/idle intervals (same contract as Counting).
	now := time.Now().UnixNano()
	for _, s := range shards {
		prev := s.lastState.Swap(0)
		last := s.lastNs.Load()
		if d := now - last; d > 0 {
			if prev == 1 {
				m.busyNs.Add(d)
			} else if prev == 2 {
				m.idleNs.Add(d)
			}
		}
	}
	// Fold each bucket's newly accumulated load into the distribution —
	// only the increment since the last RunEnd, so stratified runs don't
	// double-count earlier strata.
	var sampled int64
	for _, s := range shards {
		l := s.load.Load()
		sampled += l
	}
	if prev := m.loadSampled.Swap(sampled); sampled > prev {
		for _, s := range shards {
			m.bucketLoad.Observe(float64(s.load.Load()))
		}
	}
	m.collectSkew()
}

// itoa is strconv.Itoa without the import weight in the hot file — label
// construction happens only at registration.
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var buf [20]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		p--
		buf[p] = '-'
	}
	return string(buf[p:])
}
