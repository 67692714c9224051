// Package dist executes a compiled parallel Datalog program over genuine
// message passing: every processor is a TCP endpoint exchanging tuple
// batches, with no shared memory between processors — the
// "non-shared-memory architecture" reading of the paper's abstract machine
// (Section 3), in contrast to internal/parallel's goroutine/channel
// idealization. Both transports drive the same parallel.Node state machine,
// so the scheme semantics are identical by construction.
//
// Topology: one coordinator plus N workers in a star. Workers dial the
// coordinator's port, announce their dense index, and exchange everything —
// control traffic and data batches — over that single connection. The
// coordinator routes every data batch to the worker currently owning its
// destination hash bucket and appends it to a per-bucket send log. That log
// is what makes worker failure survivable: the paper's discriminating hash
// function partitions the ground substitutions disjointly across buckets
// (Theorems 1–2), so a dead worker's bucket is a self-contained unit of
// work. On failure the coordinator reassigns the bucket to a survivor,
// which rebuilds the bucket's EDB fragment locally, installs the bucket's
// latest checkpoint (if any) and replays the logged message suffix;
// monotonicity and set semantics make the replay confluent with the
// original execution, so the run still computes the exact least model
// (receivers drop rederived tuples by difference, as always).
//
// The coordinator's memory is its send logs and stored checkpoints; a
// queued batch is the same payload its bucket's log holds, and the data in
// flight is one superstep's output. Bucket checkpoints
// (Config.CheckpointEvery) ask a bucket's owner for its derived-tuple set;
// once a checksummed checkpoint is stored, the send-log prefix it covers is
// truncated, turning recovery from O(full history) into
// O(checkpoint + suffix). A budget over logs and checkpoints
// (Config.MaxMemoryBytes) first forces an early checkpoint+truncate cycle
// under pressure and, only if still over budget once that cycle resolves,
// fails fast with ErrResourceExhausted instead of OOMing.
//
// The run is internal/parallel's superstep loop over TCP. Each worker holds
// the batches routed to it until the coordinator's step k message, takes
// parallel.Node.Turn for each hosted bucket, Accepting in sender order,
// and answers stepDone k. FIFO order on its connection puts that answer
// behind its last data batch of the step, so once every live worker has
// answered, the step's batches are all routed: that is the barrier. The
// run ends at the first barrier whose step routed no batch and pushed no
// adopt, replay or release; a death or migration in step k only means that
// step k is not the last. With no fault, every bucket's counters but Busy
// equal parallel.RunLockstep's.
//
// Liveness, the memory budget and the rebalancer run at every barrier and
// on one ticker, at half the shorter of HeartbeatInterval and
// Rebalance.Interval; the checkpoint trigger runs at barriers only. Each
// tick pings every live worker, whose reader answers even mid-turn; a
// worker silent past Config.WorkerDeadline, or whose connection breaks, is
// declared dead.
//
// The wire format is hybrid: gob carries the envelope (wireMsg) for the
// low-rate control plane, while the high-rate payloads — data batches,
// checkpoint snapshots, the final outputs — travel inside it as opaque
// byte blobs encoded by internal/wire's varint codec. The coordinator
// verifies a snapshot's FNV checksum over those bytes, stores the blob
// verbatim and replays it verbatim on adopt; the byte length is the memory
// accounting unit.
//
// Workers may run as goroutines in the same process (Run) or as separate OS
// processes (cmd/dldist + RunWorker); the wire protocol is identical. For
// multi-process runs every process must parse the same program text so the
// constant interners agree.
package dist

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"parlog/internal/hashpart"
	"parlog/internal/network"
	"parlog/internal/obs"
	"parlog/internal/parallel"
	"parlog/internal/relation"
	"parlog/internal/seminaive"
	"parlog/internal/wire"
)

// Sentinel errors callers can test with errors.Is.
var (
	// ErrWorkerLost reports a worker death the runtime could not recover
	// from (no survivors left, or a death after the last step).
	ErrWorkerLost = errors.New("dist: worker lost")
	// ErrTimeout reports a run that exceeded Config.Timeout.
	ErrTimeout = errors.New("dist: timeout")
	// ErrResourceExhausted reports a run that stayed over its
	// Config.MaxMemoryBytes budget even after a forced checkpoint and
	// truncation cycle — the fail-fast alternative to an OOM kill.
	ErrResourceExhausted = errors.New("dist: resource budget exhausted")
)

// outBatch is one hosted bucket's share of the final pooling step for one
// predicate (parallel.Node.Output) as a wire-encoded batch; Home marks the
// bucket's whole home set.
type outBatch struct {
	Bucket int
	Pred   string
	Home   bool
	Raw    []byte
}

// msgKind enumerates wire message types. Control and data share one
// connection per worker, so a single envelope carries both planes.
type msgKind int

const (
	kindJoin            msgKind = iota + 1 // worker → coordinator: announce index
	kindPing                               // coordinator → worker: heartbeat probe
	kindPong                               // worker → coordinator: heartbeat reply
	kindData                               // both directions: one tuple batch for a bucket
	kindAdopt                              // coordinator → worker: take over a bucket (carries its checkpoint)
	kindFinish                             // coordinator → worker: the last step is over, ship outputs
	kindOutput                             // worker → coordinator: pooled outputs + stats
	kindCheckpointReq                      // coordinator → worker: snapshot one hosted bucket
	kindCheckpointReply                    // worker → coordinator: the bucket's derived-tuple set + checksum
	kindRelease                            // coordinator → worker: stop hosting a bucket (it migrated away)
	kindStep                               // coordinator → worker: take the turn of step Step (step 0 starts the run)
	kindStepDone                           // worker → coordinator: turn Step taken, after its last data batch
)

// wireMsg is the single wire envelope; Kind selects the meaningful fields.
type wireMsg struct {
	Kind   msgKind
	Index  int   // Join: the worker's dense index
	Probe  int   // CheckpointReq/Reply: checkpoint id
	Step   int   // Step/StepDone: the superstep
	Busy   int64 // StepDone: cumulative evaluation nanoseconds
	Bucket int   // Data: destination bucket; Adopt/Checkpoint: the bucket concerned
	From   int   // Data: originating bucket
	Pred   string
	Raw    []byte               // Data: one wire-encoded tuple batch (internal/wire)
	Snap   []byte               // CheckpointReply/Adopt: the wire-encoded snapshot
	Out    []outBatch           // Output: each hosted bucket's share of the pooling, per predicate
	Stats  []parallel.ProcStats // Output: one entry per hosted bucket
	// Profiles carries the hosted buckets' per-rule runtime profiles on
	// Output when the run was started with Profile set; the flat exported
	// RuleProfile records gob-encode as-is.
	Profiles []*seminaive.RuleProfile
	// Profile on step 0 arms per-rule runtime counters on every node the
	// worker hosts, including later adoptions.
	Profile bool
	Sum     uint64 // CheckpointReply: wire.Checksum of Snap
	// Span and Parent causally link data batches (see internal/wire's
	// SpanID): Span identifies this batch, Parent the received batch whose
	// processing derived it. They travel in the logged envelope, so a
	// replayed batch carries its originating span verbatim — the causal
	// chain survives worker death.
	Span   uint64 // Data: this batch's span id (0 = untracked)
	Parent uint64 // Data: the span that caused this batch (0 = initialization)
}

// dataCost is the resident size of one logged data batch — the encoded
// payload plus the envelope — the accounting unit of the memory budget.
func dataCost(raw []byte) int64 {
	return 96 + int64(len(raw))
}

// snapCost is dataCost's analogue for a stored checkpoint snapshot.
func snapCost(snap []byte) int64 {
	if len(snap) == 0 {
		return 0
	}
	return 96 + int64(len(snap))
}

// RebalanceConfig tunes the coordinator's skew-triggered adaptive load
// balancer. When Enabled, the coordinator samples each bucket's routed
// tuple volume every Interval into a sliding window of Window samples;
// when the per-bucket window skew (max/mean) reaches SkewThreshold and at
// least MinVolume tuples moved inside the window, the hottest bucket of
// the hottest worker migrates to the least-loaded worker over the
// checkpoint + send-log-suffix replay path — a recovery without a death.
type RebalanceConfig struct {
	// Enabled turns the rebalancer on.
	Enabled bool
	// SkewThreshold triggers a migration when max bucket window load /
	// mean bucket window load reaches it (default 2.0). A perfectly
	// balanced discriminating function scores 1.0.
	SkewThreshold float64
	// Interval is the load-sampling period (default 10ms).
	Interval time.Duration
	// Window is the number of samples in the sliding window (default 3).
	Window int
	// Cooldown is the minimum gap between migration decisions — applied
	// after migrations and rejections alike, so a doomed candidate can't
	// spin (default 2×Interval).
	Cooldown time.Duration
	// MaxMigrations bounds migrations per run; 0 = unlimited.
	MaxMigrations int
	// MinVolume is the minimum tuples routed inside the window for the
	// skew signal to be trusted (default 64); quiet tails don't migrate.
	MinVolume int64
	// Force triggers a migration on every eligible sample regardless of
	// skew or volume — the differential tests' forced-migration mode.
	Force bool
}

func (rc *RebalanceConfig) fill() {
	if !rc.Enabled {
		return
	}
	if rc.SkewThreshold <= 0 {
		rc.SkewThreshold = 2.0
	}
	if rc.Interval <= 0 {
		rc.Interval = 10 * time.Millisecond
	}
	if rc.Window <= 0 {
		rc.Window = 3
	}
	if rc.Cooldown <= 0 {
		rc.Cooldown = 2 * rc.Interval
	}
	if rc.MinVolume <= 0 {
		rc.MinVolume = 64
	}
}

// Config configures a distributed run.
type Config struct {
	// Workers is the number of processors the coordinator waits for.
	Workers int
	// Buckets is the number of hash buckets the program was compiled for.
	// It may exceed Workers — extra buckets are spread bucket%Workers at
	// start and are the rebalancer's unit of migration. 0 (or any value
	// below Workers) means one bucket per worker, the classic 1:1 layout.
	Buckets int
	// Addr is the coordinator's listen address (default "127.0.0.1:0").
	Addr string
	// Timeout aborts a run that does not finish in time (default 60s).
	// The returned error wraps ErrTimeout.
	Timeout time.Duration
	// HeartbeatInterval is how long a worker may stay silent before the
	// coordinator records a heartbeat miss (default 100ms).
	HeartbeatInterval time.Duration
	// WorkerDeadline is how long a worker may stay silent before the
	// coordinator declares it dead and recovers its buckets (default 2s).
	WorkerDeadline time.Duration
	// MaxRetries bounds a worker's connect retries (exponential backoff
	// with jitter); used by Run when spawning in-process workers
	// (default 5).
	MaxRetries int
	// RetryBase is the first backoff step of the connect retry
	// (default 5ms).
	RetryBase time.Duration

	// CheckpointEvery requests a checkpoint of a bucket at the first
	// barrier by which that many data batches have been logged for it
	// since its last checkpoint; 0 disables checkpoints. It bounds
	// recovery replay to the log suffix since the last accepted
	// checkpoint.
	CheckpointEvery int
	// MaxMemoryBytes is a budget over send logs and stored checkpoints.
	// When exceeded the coordinator forces an early checkpoint+truncate
	// cycle; if the budget is still exceeded once that cycle resolves, the
	// run fails with an error wrapping ErrResourceExhausted. 0 means
	// unlimited.
	MaxMemoryBytes int64
	// LocalCheckpoints makes recovery adopt from worker-local disk:
	// adopt messages carry only the accepted checkpoint's checksum, and
	// the survivor loads the blob from its WorkerConfig.Dir (persisted
	// there by the bucket's previous owner — the workers must share the
	// directory, as in-process workers started by Run do via WorkerDir).
	// The coordinator still verifies and stores replies as usual; only
	// the recovery path stops shipping the blob.
	LocalCheckpoints bool
	// WorkerDir is the checkpoint directory Run hands every in-process
	// worker (WorkerConfig.Dir); empty disables local persistence.
	WorkerDir string
	// CheckpointFault, when non-nil, intercepts every checkpoint reply
	// the coordinator receives — the fault-injection hook. Return values
	// follow internal/dist/fault: 0 passes the reply through, 1 drops it
	// in transit, 2 corrupts its payload so the checksum check fails.
	CheckpointFault func(bucket, ckpt int) int
	// RouteFault, when non-nil, may rewrite a data batch's destination
	// bucket as the router accepts it — the fault-injection hook the
	// network-conformance auditor is tested against (a misrouted batch
	// puts traffic on a channel the minimal network graph never
	// predicted). Return the bucket to deliver to; return the argument
	// unchanged to pass the batch through.
	RouteFault func(fromWorker, bucket int) int

	// Rebalance configures the skew-triggered adaptive load balancer.
	Rebalance RebalanceConfig
	// Pinned marks buckets whose compiled rules carry restriction-set
	// constraints (parallel.Program.PinnedBuckets); the transferability
	// check refuses to relabel them. Ownership moves stay allowed.
	Pinned []bool
	// Network, when non-nil, is the program's derived communication graph;
	// every candidate repartitioning is validated against it and the
	// induced worker-level cross edges are derived from it
	// (network.CheckTransferable).
	Network *network.Derivation
	// RebalanceFault, when non-nil, may mutate the candidate bucket map
	// the rebalancer is about to validate — the fault-injection hook that
	// exercises the transferability rejection path (e.g. by relabelling a
	// pinned bucket).
	RebalanceFault func(*network.Candidate)

	// Ctx, when non-nil, cancels the run: every blocking path (accept,
	// decode, queue waits, the barrier) unblocks promptly.
	Ctx context.Context
	// Sink, when non-nil, receives the coordinator's and (for in-process
	// workers started by Run) the workers' event stream, including the
	// fault-tolerance events (heartbeat misses, deaths, reassignments,
	// replays) and the bounded-memory events (checkpoints, truncations,
	// memory pressure).
	Sink obs.EventSink
	// ProcIDs maps dense worker indices to paper-level processor ids for
	// event labeling; nil labels events with the dense index.
	ProcIDs []int
	// Profile arms per-rule runtime counters on every worker node (the
	// step 0 message carries the flag; adopted buckets inherit it) and
	// merges the records shipped with each worker's output into
	// Result.Profile. Off by default.
	Profile bool
	// WorkerDial, when non-nil, supplies each in-process worker's dialer
	// (Run only) — the fault-injection hook.
	WorkerDial func(wi int) DialFunc
	// WrapListener, when non-nil, wraps the coordinator's listener so
	// every accepted worker connection can be instrumented from the
	// coordinator side (e.g. a fault.Injector slowing the coordinator's
	// writes to simulate congested links). The coordinator keeps the raw
	// TCP listener for deadlines; only Accept goes through the wrapper.
	WrapListener func(net.Listener) net.Listener

	// withholdHomes pools every predicate by union, as if no bucket had
	// shipped its home set: the differential tests' reference path.
	withholdHomes bool
}

func (c *Config) fill() {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	if c.WorkerDeadline <= 0 {
		c.WorkerDeadline = 2 * time.Second
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 5
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 5 * time.Millisecond
	}
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
	c.Rebalance.fill()
}

// tick is the period of the coordinator's ticker: half the shortest
// configured interval, so a live worker's heartbeat reply is always fresher
// than one HeartbeatInterval when liveness is checked.
func (c *Config) tick() time.Duration {
	d := c.HeartbeatInterval
	if c.Rebalance.Enabled {
		d = min(d, c.Rebalance.Interval)
	}
	return max(d/2, 1)
}

// procID labels a dense worker index with its paper-level processor id.
func (c *Config) procID(wi int) int {
	if wi >= 0 && wi < len(c.ProcIDs) {
		return c.ProcIDs[wi]
	}
	return wi
}

// Recovery records one bucket reassignment performed during a run.
type Recovery struct {
	// Bucket is the recovered hash bucket (the dead worker's dense index
	// at compile time).
	Bucket int
	// FromWorker and ToWorker are dense worker indices.
	FromWorker, ToWorker int
	// Replayed is the number of logged batches replayed to the new
	// owner — the suffix since the last accepted checkpoint.
	Replayed int
	// Truncated is the number of batches the bucket's checkpoint covers;
	// they were dropped from the log and did not need replaying. The
	// bucket's full history length is Replayed + Truncated.
	Truncated int
}

// Migration records one live bucket move performed by the rebalancer.
type Migration struct {
	// Bucket is the migrated hash bucket.
	Bucket int
	// FromWorker and ToWorker are dense worker indices; both were alive.
	FromWorker, ToWorker int
	// Replayed is the number of logged batches replayed to the new owner;
	// Truncated is the prefix the bucket's checkpoint covered.
	Replayed, Truncated int
	// Skew is the window skew ratio that triggered the move (0 under
	// RebalanceConfig.Force with no measurable load).
	Skew float64
}

// Result is the pooled outcome of a distributed run.
type Result struct {
	Output relation.Store
	// Stats holds one entry per hash bucket (not per surviving worker):
	// a worker hosting recovered buckets reports each separately. Sorted
	// by processor id.
	Stats []parallel.ProcStats
	Wall  time.Duration
	// Deaths lists the dense indices of workers declared dead, in order
	// of death.
	Deaths []int
	// Recoveries lists the bucket reassignments that kept the run alive.
	Recoveries []Recovery
	// Checkpoints counts the bucket checkpoints the coordinator accepted.
	Checkpoints int
	// TruncatedBatches counts logged batches dropped because an accepted
	// checkpoint covered them.
	TruncatedBatches int64
	// DroppedBatches counts data batches addressed to out-of-range
	// buckets, discarded (and reported) by the router.
	DroppedBatches int64
	// Migrations lists the live bucket moves the rebalancer applied.
	Migrations []Migration
	// RebalanceRejected counts candidate repartitionings the
	// transferability check refused.
	RebalanceRejected int
	// Profile is the merged per-rule runtime profile of the whole run; nil
	// unless Config.Profile was set. Records from all buckets (including
	// recovered and migrated ones) fold by constraint-stripped rule text.
	Profile *seminaive.Profile
	// OutputRows counts the rows the workers shipped in their final
	// outputs. A bucket ships its home set of a predicate whose tuples
	// provably reached their one home, and otherwise only the rows it
	// generated. When every predicate was concatenated, the home sets
	// partition the model and this equals its size; when no bucket shipped
	// a home set, it equals the sum of Stats[i].Generated.
	OutputRows int64
	// Concatenated lists, sorted, the predicates pooled by concatenating
	// the buckets' home sets without a dedup probe. The coordinator does so
	// when every bucket shipped the predicate's home set and no tuple can
	// have left its home: no worker died, no bucket migrated, and the
	// router dropped or diverted no batch. Every other predicate is pooled
	// by union.
	Concatenated []string
	// Placements is the base-relation layout over the buckets, read off
	// the fragments the workers' nodes built; Run sets it.
	Placements map[string]hashpart.Placement
	// WorkerBusy holds each worker's cumulative evaluation nanoseconds
	// (from its last stepDone), indexed by dense worker index; dead
	// workers keep the last value they reported. On the paper's
	// one-processor-per-worker hardware the maximum entry is the critical
	// path that a run's wall clock converges to, which makes it the
	// machine-independent load-balance measure (cf. E9 in cmd/dlbench).
	WorkerBusy []int64
}

// queue is an unbounded FIFO of wire messages with close semantics: pop
// drains remaining messages before reporting closed, so a writer can flush
// everything enqueued before shutdown. On the coordinator a queued data
// batch shares its payload with its bucket's send log, so the queues hold
// no memory the logs do not. One consumer per queue.
type queue struct {
	mu     sync.Mutex
	msgs   []wireMsg
	head   int
	closed bool
	notify chan struct{}
}

func newQueue() *queue { return &queue{notify: make(chan struct{}, 1)} }

func (q *queue) signal() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// push enqueues m unless the queue is closed.
func (q *queue) push(m wireMsg) {
	q.mu.Lock()
	if !q.closed {
		q.msgs = append(q.msgs, m)
	}
	q.mu.Unlock()
	q.signal()
}

// pop blocks until a message is available or the queue is closed and
// drained.
func (q *queue) pop() (wireMsg, bool) {
	for {
		q.mu.Lock()
		if q.head < len(q.msgs) {
			m := q.msgs[q.head]
			q.msgs[q.head] = wireMsg{} // release tuple memory
			q.head++
			if q.head == len(q.msgs) {
				q.msgs = q.msgs[:0]
				q.head = 0
			}
			q.mu.Unlock()
			return m, true
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			return wireMsg{}, false
		}
		<-q.notify
	}
}

// close stops accepting pushes and wakes the consumer.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.signal()
}

// Coordinator orchestrates one run. Create with NewCoordinator, hand its
// Addr to the workers, then call Wait.
type Coordinator struct {
	cfg     Config
	ln      net.Listener // raw TCP listener (deadlines, Addr)
	acc     net.Listener // accept path, possibly wrapped by cfg.WrapListener
	arities map[string]int
}

// NewCoordinator opens the control listener.
func NewCoordinator(cfg Config, idbArities map[string]int) (*Coordinator, error) {
	cfg.fill()
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("dist: Workers must be positive")
	}
	if cfg.Buckets < cfg.Workers {
		cfg.Buckets = cfg.Workers
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	acc := ln
	if cfg.WrapListener != nil {
		acc = cfg.WrapListener(ln)
	}
	return &Coordinator{cfg: cfg, ln: ln, acc: acc, arities: idbArities}, nil
}

// Addr returns the address workers must dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// wkState is the coordinator's handle on one worker: its connection, its
// serialized outbound queue, and what the barrier and liveness logic read.
// All mutable fields are guarded by the router mutex.
type wkState struct {
	index int
	conn  net.Conn
	dec   *gob.Decoder
	out   *queue

	alive     bool
	connErr   error     // first reader/writer error; death finalized by the barrier loop
	lastHeard time.Time // last message received (or start time)
	misses    int       // heartbeat misses already reported

	done int   // the last step this worker finished (-1 before step 0)
	busy int64 // cumulative evaluation ns from its last stepDone — the rebalancer's tie-break

	output *wireMsg // final kindOutput, once received
}

// bucketState is the coordinator's bookkeeping for one hash bucket: who
// hosts it, the send-log suffix since its last checkpoint, and the stored
// checkpoint that replaces the truncated prefix during recovery.
type bucketState struct {
	owner    int
	log      []wireMsg
	logBase  int64 // absolute index of log[0]: batches truncated so far
	logBytes int64

	snap       []byte // latest accepted checkpoint (wire-encoded); nil if none
	snapBytes  int64
	snapOffset int64  // absolute batch count the checkpoint covers
	sum        uint64 // wire.Checksum of snap — what LocalCheckpoints adopts ship
	probe      int    // the accepted checkpoint's request id, shipped alongside sum

	pending       int   // outstanding checkpoint request id; 0 = none
	pendingOffset int64 // log length (absolute) at request time

	// Rebalancer load tracking: cumulative tuples routed to this bucket,
	// the cumulative value at the last sample, and the sliding window of
	// per-interval deltas (ring indexed by router.winIdx).
	routed     int64
	lastRouted int64
	win        []int64
}

// router is the shared hub: bucket ownership, per-bucket send logs and
// checkpoints, worker states, the memory ledger and the death/recovery
// bookkeeping. One mutex guards it all — the data plane
// takes it once per batch, which is noise next to a gob encode.
type router struct {
	mu      sync.Mutex
	cfg     *Config
	ws      []*wkState
	buckets []bucketState

	// step is the current superstep; moved counts what it has moved so
	// far: batches routed to a bucket, adopts (with their replays) and
	// releases. The run ends at a barrier whose step moved nothing.
	step, moved int
	// wake tells the barrier loop that a worker finished its step or
	// broke its connection.
	wake chan struct{}

	deaths     []int
	recoveries []Recovery
	fatal      error

	// The memory ledger (estimated via dataCost/snapCost).
	logBytes  int64 // data bytes held by send logs
	snapBytes int64 // bytes held by stored checkpoints
	pressured bool  // over MaxMemoryBytes; a forced checkpoint cycle is in flight

	ckptSeq   int // checkpoint request id generator
	ckpts     int // accepted checkpoints
	truncated int64
	dropped   int64 // out-of-range data batches discarded
	diverted  int64 // data batches RouteFault sent to another bucket

	// Rebalancer state.
	migrations    []Migration
	rebalRejected int
	winIdx        int       // samples taken so far (ring cursor)
	lastSampleAt  time.Time // previous sampling instant
	lastDecideAt  time.Time // previous migration or rejection (cooldown clock)

	outputCh chan int // worker indices that delivered their output
}

func newRouter(cfg *Config, ws []*wkState) *router {
	nb := cfg.Buckets
	if nb < len(ws) {
		nb = len(ws)
	}
	r := &router{
		cfg:      cfg,
		ws:       ws,
		buckets:  make([]bucketState, nb),
		wake:     make(chan struct{}, 1),
		outputCh: make(chan int, len(ws)),
	}
	for i := range r.buckets {
		r.buckets[i].owner = InitialOwner(i, len(ws))
	}
	return r
}

// InitialOwner is the start-of-run bucket placement: bucket b lives on
// worker b%workers, so bucket i == worker i whenever buckets and workers
// agree (the classic 1:1 layout) and extra buckets wrap around.
func InitialOwner(bucket, workers int) int { return bucket % workers }

func (r *router) signal() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// connBroken records a connection failure; the barrier loop turns it into
// a death (keeping all recovery logic on one goroutine).
func (r *router) connBroken(w *wkState, err error) {
	r.mu.Lock()
	if w.alive && w.connErr == nil {
		w.connErr = err
	}
	r.mu.Unlock()
	r.signal()
}

// handle applies one message from worker w; an error breaks w's
// connection. Nothing a worker sends after it was declared dead is
// applied: its buckets are being replayed elsewhere, and set semantics
// make the replayed derivations a superset of its late batches.
func (r *router) handle(w *wkState, m wireMsg) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !w.alive {
		return fmt.Errorf("dist: worker %d sent message kind %d after it was declared dead", w.index, m.Kind)
	}
	w.lastHeard, w.misses = time.Now(), 0
	switch m.Kind {
	case kindPong:
	case kindStepDone:
		if m.Step != r.step {
			return fmt.Errorf("dist: worker %d finished step %d during step %d", w.index, m.Step, r.step)
		}
		w.done, w.busy = m.Step, m.Busy
		r.signal()
	case kindData:
		r.routeLocked(w, m)
	case kindCheckpointReply:
		r.noteCheckpointLocked(w, m)
	case kindOutput:
		if w.output != nil {
			return fmt.Errorf("dist: worker %d sent its output twice", w.index)
		}
		w.output = &m
		r.outputCh <- w.index // buffered for one output per worker
	default:
		return fmt.Errorf("dist: worker %d sent unexpected message kind %d", w.index, m.Kind)
	}
	return nil
}

// routeLocked logs and forwards one data batch to the current owner of its
// destination bucket. Caller holds the mutex.
func (r *router) routeLocked(w *wkState, m wireMsg) {
	if r.cfg.RouteFault != nil {
		if b := r.cfg.RouteFault(w.index, m.Bucket); b != m.Bucket {
			m.Bucket = b
			r.diverted++
		}
	}
	if m.Bucket < 0 || m.Bucket >= len(r.buckets) {
		// Corrupt destination: undeliverable. Count and report it
		// instead of losing it invisibly.
		r.dropped++
		if r.cfg.Sink != nil {
			r.cfg.Sink.BatchDropped(r.cfg.procID(w.index), m.Bucket, wire.BatchCount(m.Raw))
		}
		return
	}
	cost := dataCost(m.Raw)
	bs := &r.buckets[m.Bucket]
	bs.routed += int64(wire.BatchCount(m.Raw))
	bs.log = append(bs.log, m)
	bs.logBytes += cost
	r.logBytes += cost
	r.moved++
	r.ws[bs.owner].out.push(m)
}

// requestCheckpointLocked asks a bucket's owner for a snapshot covering
// the log as of now. At most one request per bucket is outstanding; the
// reply's checksum is verified before any truncation. Caller holds the
// mutex.
func (r *router) requestCheckpointLocked(b int) {
	bs := &r.buckets[b]
	o := r.ws[bs.owner]
	if bs.pending != 0 || !o.alive {
		return
	}
	r.ckptSeq++
	bs.pending = r.ckptSeq
	bs.pendingOffset = bs.logBase + int64(len(bs.log))
	o.out.push(wireMsg{Kind: kindCheckpointReq, Bucket: b, Probe: bs.pending})
	if r.cfg.Sink != nil {
		r.cfg.Sink.CheckpointStart(b, r.cfg.procID(o.index))
	}
}

// checkCheckpoints requests a checkpoint of every bucket that has logged
// CheckpointEvery batches since its last one. It runs at barriers only, so
// without faults a run takes the same checkpoints at the same steps every
// time. Called from the barrier loop.
func (r *router) checkCheckpoints() {
	if r.cfg.CheckpointEvery <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for b := range r.buckets {
		bs := &r.buckets[b]
		if bs.pending == 0 && bs.logBase+int64(len(bs.log))-bs.snapOffset >= int64(r.cfg.CheckpointEvery) {
			r.requestCheckpointLocked(b)
		}
	}
}

// noteCheckpointLocked processes one checkpoint reply: verify it, store
// it, truncate the log prefix it covers. A reply that raced with a bucket
// reassignment, was superseded, failed its checksum, or was dropped or
// corrupted by the fault hook leaves the log untouched — recovery then
// simply replays a longer suffix, so every outcome is safe. Caller holds
// the mutex.
func (r *router) noteCheckpointLocked(w *wkState, m wireMsg) {
	if m.Bucket < 0 || m.Bucket >= len(r.buckets) {
		return
	}
	bs := &r.buckets[m.Bucket]
	if bs.pending == 0 || m.Probe != bs.pending || bs.owner != w.index {
		return // stale: the bucket moved or the request was superseded
	}
	off := bs.pendingOffset
	bs.pending = 0
	proc := r.cfg.procID(w.index)
	sum := m.Sum
	if r.cfg.CheckpointFault != nil {
		switch r.cfg.CheckpointFault(m.Bucket, m.Probe) {
		case 1: // dropped in transit
			if r.cfg.Sink != nil {
				r.cfg.Sink.CheckpointEnd(m.Bucket, proc, 0, false)
			}
			return
		case 2: // corrupted in transit: the checksum check below rejects it
			sum ^= 0xdecea5ed
		}
	}
	tuples := wire.SnapshotTuples(m.Snap)
	if m.Snap == nil || wire.Checksum(m.Snap) != sum {
		if r.cfg.Sink != nil {
			r.cfg.Sink.CheckpointEnd(m.Bucket, proc, tuples, false)
		}
		return
	}
	newBytes := snapCost(m.Snap)
	r.snapBytes += newBytes - bs.snapBytes
	bs.snap, bs.snapBytes, bs.snapOffset = m.Snap, newBytes, off
	bs.sum, bs.probe = sum, m.Probe
	r.ckpts++
	if r.cfg.Sink != nil {
		r.cfg.Sink.CheckpointEnd(m.Bucket, proc, tuples, true)
	}
	cut := int(off - bs.logBase)
	if cut > len(bs.log) {
		cut = len(bs.log)
	}
	if cut > 0 {
		var freed int64
		for _, m := range bs.log[:cut] {
			freed += dataCost(m.Raw)
		}
		bs.log = append([]wireMsg(nil), bs.log[cut:]...)
		bs.logBase = off
		bs.logBytes -= freed
		r.logBytes -= freed
		r.truncated += int64(cut)
		if r.cfg.Sink != nil {
			r.cfg.Sink.LogTruncated(m.Bucket, cut)
		}
	}
}

// checkMemory enforces the budget over send logs and stored checkpoints:
// on first overrun it forces an early checkpoint+truncate cycle;
// if the budget is still exceeded once no checkpoint requests remain in
// flight and no log is left to truncate, it fails the run fast with
// ErrResourceExhausted. Called from the barrier loop.
func (r *router) checkMemory() {
	if r.cfg.MaxMemoryBytes <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	used := r.logBytes + r.snapBytes
	if used <= r.cfg.MaxMemoryBytes {
		r.pressured = false
		return
	}
	if !r.pressured {
		r.pressured = true
		if r.cfg.Sink != nil {
			r.cfg.Sink.MemoryPressure(used, r.cfg.MaxMemoryBytes)
		}
	}
	// The stored checkpoints are the condensed, irreducible recovery
	// state — every log is a superset of what its bucket's snapshot
	// holds. If the snapshots alone exceed the budget, no amount of
	// truncation can ever get under it: fail fast.
	if r.snapBytes > r.cfg.MaxMemoryBytes && r.fatal == nil {
		r.fatal = fmt.Errorf("dist: checkpointed state alone is %d bytes, over budget %d: %w",
			r.snapBytes, r.cfg.MaxMemoryBytes, ErrResourceExhausted)
		return
	}
	// Degrade gracefully: checkpoint every bucket that still has log to
	// truncate. Only when nothing is pending and nothing is left to
	// reclaim is the overrun unrecoverable.
	reclaimable := false
	for b := range r.buckets {
		bs := &r.buckets[b]
		if bs.pending != 0 {
			reclaimable = true
			continue
		}
		if len(bs.log) > 0 && r.ws[bs.owner].alive {
			r.requestCheckpointLocked(b)
			reclaimable = true
		}
	}
	if !reclaimable && r.fatal == nil {
		r.fatal = fmt.Errorf("dist: memory %d bytes over budget %d after forced checkpointing: %w",
			used, r.cfg.MaxMemoryBytes, ErrResourceExhausted)
	}
}

// ping enqueues one heartbeat probe to every live worker.
func (r *router) ping() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.ws {
		if w.alive {
			w.out.push(wireMsg{Kind: kindPing})
		}
	}
}

// checks runs liveness, the checkpoint trigger (at barriers), the memory
// budget and the rebalancer, and returns the run's fatal error, if any.
// Called from the barrier loop, at every barrier and tick.
func (r *router) checks(now time.Time, barrier bool) error {
	r.checkLiveness(now)
	if barrier {
		r.checkCheckpoints()
	}
	r.checkMemory()
	r.checkRebalance(now)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fatal
}

// checkLiveness declares deaths (broken connections, deadline overruns),
// reports heartbeat misses, and performs bucket recovery. Called from the
// barrier loop only.
func (r *router) checkLiveness(now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.ws {
		if !w.alive {
			continue
		}
		if w.connErr != nil {
			r.declareDead(w, fmt.Sprintf("connection failed: %v", w.connErr))
			continue
		}
		silent := now.Sub(w.lastHeard)
		if silent > r.cfg.WorkerDeadline {
			r.declareDead(w, fmt.Sprintf("no heartbeat for %v", silent.Round(time.Millisecond)))
			continue
		}
		if r.cfg.HeartbeatInterval > 0 {
			if missed := int(silent / r.cfg.HeartbeatInterval); missed > w.misses {
				w.misses = missed
				if r.cfg.Sink != nil {
					r.cfg.Sink.HeartbeatMiss(r.cfg.procID(w.index), missed)
				}
			}
		}
	}
}

// declareDead removes w from the membership and recovers its buckets:
// every bucket w hosted is reassigned to the least-loaded survivor, which
// is told to adopt it — installing the bucket's stored checkpoint and
// rebuilding the EDB fragment locally — and is then replayed the bucket's
// logged suffix. Caller holds the mutex.
func (r *router) declareDead(w *wkState, reason string) {
	w.alive = false
	r.deaths = append(r.deaths, w.index)
	w.conn.Close()
	w.out.close()
	if r.cfg.Sink != nil {
		r.cfg.Sink.WorkerDead(r.cfg.procID(w.index), reason)
	}

	// Buckets w hosted (its own, plus any it had adopted earlier —
	// cascading failures recover the same way).
	var lost []int
	for b := range r.buckets {
		if r.buckets[b].owner == w.index {
			lost = append(lost, b)
		}
	}
	if len(lost) == 0 {
		return
	}
	for _, b := range lost {
		s := r.survivorLocked()
		if s == nil {
			if r.fatal == nil {
				r.fatal = fmt.Errorf("dist: worker %d died (%s) with no survivors: %w", w.index, reason, ErrWorkerLost)
			}
			return
		}
		bs := &r.buckets[b]
		bs.owner = s.index
		bs.pending = 0 // a dead owner can never answer its request
		r.recoveries = append(r.recoveries, Recovery{
			Bucket: b, FromWorker: w.index, ToWorker: s.index,
			Replayed: len(bs.log), Truncated: int(bs.logBase),
		})
		if r.cfg.Sink != nil {
			r.cfg.Sink.BucketReassigned(b, r.cfg.procID(w.index), r.cfg.procID(s.index))
		}
		r.adoptAndReplayLocked(b, s)
	}
}

// adoptAndReplayLocked hands bucket b to live worker s: an adopt message
// installs the bucket's stored checkpoint, then the logged suffix replays —
// the shared primitive of death recovery and live migration. The adopt
// carries the checkpoint (nil if none): the new owner installs it, then the
// logged suffix completes the bucket's history. Stored snapshots are the
// verified wire blobs, shipped verbatim — no re-encode on this path. Under
// LocalCheckpoints only the checksum travels; the new owner loads the blob
// the previous owner persisted to the shared local directory and verifies
// it against this sum. Returns the replayed batch count. Caller holds the
// mutex and has already flipped the bucket's owner to s.index.
func (r *router) adoptAndReplayLocked(b int, s *wkState) int {
	bs := &r.buckets[b]
	r.moved++
	if r.cfg.Sink != nil {
		r.cfg.Sink.ReplayStart(b, r.cfg.procID(s.index))
	}
	adopt := wireMsg{Kind: kindAdopt, Bucket: b, Snap: bs.snap}
	if r.cfg.LocalCheckpoints && bs.snap != nil {
		adopt.Snap, adopt.Sum, adopt.Probe = nil, bs.sum, bs.probe
	}
	s.out.push(adopt)
	for _, m := range bs.log {
		if m.Span != 0 {
			obs.SpanReplay(r.cfg.Sink, b, r.cfg.procID(s.index), m.Span)
		}
		s.out.push(m)
	}
	if r.cfg.Sink != nil {
		r.cfg.Sink.ReplayEnd(b, r.cfg.procID(s.index), len(bs.log))
	}
	return len(bs.log)
}

// survivorLocked picks the live worker hosting the fewest buckets (lowest
// index on ties) — a deterministic, load-balancing choice.
func (r *router) survivorLocked() *wkState {
	hosted := make(map[int]int)
	for b := range r.buckets {
		hosted[r.buckets[b].owner]++
	}
	var best *wkState
	for _, w := range r.ws {
		if !w.alive {
			continue
		}
		if best == nil || hosted[w.index] < hosted[best.index] {
			best = w
		}
	}
	return best
}

// checkRebalance is the adaptive load balancer's decision point, called at
// every barrier and tick. Every Interval it samples each bucket's
// routed-tuple delta into the sliding window; when the per-bucket window
// skew crosses the threshold (or under Force) it picks the hottest bucket
// of the hottest worker and migrates it to the least-loaded live worker —
// after the candidate map passes the transferability check — using the
// same checkpoint-adopt + log-suffix replay as death recovery. The move counts
// as moved in the current step, so that step is not the last, and FIFO
// queue order fences in-flight batches: everything routed before the flip
// precedes the release in the old owner's queue, and anything it had
// accepted but not drained is regenerated at the new owner by the replay
// (set semantics make that confluent).
func (r *router) checkRebalance(now time.Time) {
	rc := &r.cfg.Rebalance
	if !rc.Enabled {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if now.Sub(r.lastSampleAt) < rc.Interval {
		return
	}
	r.lastSampleAt = now

	// Sample: fold each bucket's routed delta into its window ring.
	for b := range r.buckets {
		bs := &r.buckets[b]
		if len(bs.win) != rc.Window {
			bs.win = make([]int64, rc.Window)
		}
		bs.win[r.winIdx%rc.Window] = bs.routed - bs.lastRouted
		bs.lastRouted = bs.routed
	}
	r.winIdx++

	if rc.MaxMigrations > 0 && len(r.migrations) >= rc.MaxMigrations {
		return
	}
	if !r.lastDecideAt.IsZero() && now.Sub(r.lastDecideAt) < rc.Cooldown {
		return
	}
	if r.winIdx < rc.Window && !rc.Force {
		return // window not yet full: the skew estimate is noise
	}

	// Per-bucket window sums and per-worker aggregates. Worker load is its
	// buckets' window volume; ties break on reported busy time.
	load := make([]int64, len(r.ws))
	hosted := make([]int, len(r.ws))
	winSum := make([]int64, len(r.buckets))
	var volume, maxBucket int64
	for b := range r.buckets {
		bs := &r.buckets[b]
		for _, d := range bs.win {
			winSum[b] += d
		}
		volume += winSum[b]
		if winSum[b] > maxBucket {
			maxBucket = winSum[b]
		}
		load[bs.owner] += winSum[b]
		hosted[bs.owner]++
	}
	skew := 0.0
	if volume > 0 {
		skew = float64(maxBucket) * float64(len(r.buckets)) / float64(volume)
	}
	if !rc.Force && (volume < rc.MinVolume || skew < rc.SkewThreshold) {
		return
	}

	// Hottest worker with at least two buckets (a single-bucket worker has
	// nothing to shed), and the least-loaded live worker as the target.
	from, to := -1, -1
	for _, w := range r.ws {
		if !w.alive || hosted[w.index] < 2 {
			continue
		}
		if from < 0 || load[w.index] > load[from] ||
			(load[w.index] == load[from] && w.busy > r.ws[from].busy) {
			from = w.index
		}
	}
	for _, w := range r.ws {
		if !w.alive || w.index == from {
			continue
		}
		if to < 0 || load[w.index] < load[to] ||
			(load[w.index] == load[to] && w.busy < r.ws[to].busy) {
			to = w.index
		}
	}
	if from < 0 || to < 0 || load[to] >= load[from] && !rc.Force {
		return
	}
	hot := -1
	for b := range r.buckets {
		if r.buckets[b].owner != from {
			continue
		}
		if hot < 0 || winSum[b] > winSum[hot] {
			hot = b
		}
	}
	if hot < 0 {
		return
	}
	r.lastDecideAt = now

	// Transferability: validate the post-move bucket map against the
	// derived communication constraints before touching anything. The
	// fault hook may corrupt the candidate to exercise the rejection path.
	owner := make([]int, len(r.buckets))
	for b := range r.buckets {
		owner[b] = r.buckets[b].owner
	}
	owner[hot] = to
	cand := network.Candidate{Buckets: len(r.buckets), Workers: len(r.ws), Owner: owner}
	if r.cfg.RebalanceFault != nil {
		r.cfg.RebalanceFault(&cand)
	}
	if _, err := network.CheckTransferable(cand, r.cfg.Pinned, r.cfg.Network); err != nil {
		r.rebalRejected++
		obs.RebalanceRejected(r.cfg.Sink, hot, r.cfg.procID(from), r.cfg.procID(to), err.Error())
		return
	}

	// Apply the move: a recovery without a death. The release is enqueued
	// to the old owner after every batch already routed to it (FIFO), and
	// the adopt + suffix replay rebuilds the bucket at the new owner.
	obs.MigrationStart(r.cfg.Sink, hot, r.cfg.procID(from), r.cfg.procID(to), skew)
	bs := &r.buckets[hot]
	bs.owner = to
	bs.pending = 0 // the old owner's checkpoint reply would be stale
	r.ws[from].out.push(wireMsg{Kind: kindRelease, Bucket: hot})
	if r.cfg.Sink != nil {
		r.cfg.Sink.BucketReassigned(hot, r.cfg.procID(from), r.cfg.procID(to))
	}
	replayed := r.adoptAndReplayLocked(hot, r.ws[to])
	r.migrations = append(r.migrations, Migration{
		Bucket: hot, FromWorker: from, ToWorker: to,
		Replayed: replayed, Truncated: int(bs.logBase), Skew: skew,
	})
	obs.MigrationEnd(r.cfg.Sink, hot, r.cfg.procID(from), r.cfg.procID(to), replayed)
}

// barrier reports whether every live worker has finished the current
// step.
func (r *router) barrier() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.ws {
		if w.alive && w.done != r.step {
			return false
		}
	}
	return true
}

// advance starts the next step at a barrier, unless the step just finished
// moved nothing: then the run is over and advance reports false. The step
// messages go out under the mutex, so no batch of the new step can be
// routed to a worker ahead of its step message.
func (r *router) advance() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.moved == 0 {
		return false
	}
	r.step++
	r.moved = 0
	for _, w := range r.ws {
		if w.alive {
			w.out.push(wireMsg{Kind: kindStep, Step: r.step})
		}
	}
	return true
}

// finish asks every live worker for its output and returns their indices.
func (r *router) finish() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var live []int
	for _, w := range r.ws {
		if w.alive {
			w.out.push(wireMsg{Kind: kindFinish})
			live = append(live, w.index)
		}
	}
	return live
}

// closeAll tears down every connection and queue (idempotent).
func (r *router) closeAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.ws {
		w.conn.Close()
		w.out.close()
	}
}

// Wait accepts the workers, runs the protocol to completion — surviving
// worker deaths via checkpoint+suffix bucket recovery — and returns the
// pooled result. It closes the listener before returning.
func (c *Coordinator) Wait() (*Result, error) {
	defer c.ln.Close()
	start := time.Now()
	deadline := start.Add(c.cfg.Timeout)
	ctx := c.cfg.Ctx

	// Join phase: accept one connection per worker. Cancellation closes
	// the listener; the deadline bounds the whole phase.
	stopJoinWatch := context.AfterFunc(ctx, func() { c.ln.Close() })
	ws := make([]*wkState, c.cfg.Workers)
	for joined := 0; joined < c.cfg.Workers; joined++ {
		if err := c.ln.(*net.TCPListener).SetDeadline(deadline); err != nil {
			stopJoinWatch()
			return nil, err
		}
		conn, err := c.acc.Accept()
		if err != nil {
			stopJoinWatch()
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return nil, fmt.Errorf("dist: waiting for workers: %v: %w", err, ErrTimeout)
			}
			return nil, fmt.Errorf("dist: waiting for workers: %w", err)
		}
		dec := gob.NewDecoder(conn)
		var join wireMsg
		if err := dec.Decode(&join); err != nil {
			stopJoinWatch()
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("dist: join decode: %w", err)
		}
		if join.Kind != kindJoin || join.Index < 0 || join.Index >= c.cfg.Workers {
			stopJoinWatch()
			conn.Close()
			return nil, fmt.Errorf("dist: bad join message (kind %d, index %d)", join.Kind, join.Index)
		}
		if ws[join.Index] != nil {
			stopJoinWatch()
			conn.Close()
			return nil, fmt.Errorf("dist: duplicate worker index %d", join.Index)
		}
		ws[join.Index] = &wkState{
			index: join.Index, conn: conn, dec: dec, out: newQueue(),
			alive: true, lastHeard: time.Now(),
		}
	}
	stopJoinWatch()
	if err := ctx.Err(); err != nil {
		for _, w := range ws {
			w.conn.Close()
		}
		return nil, err
	}

	r := newRouter(&c.cfg, ws)
	defer r.closeAll()
	stopWatch := context.AfterFunc(ctx, r.closeAll)
	defer stopWatch()

	// Per-worker reader and writer goroutines.
	for _, w := range ws {
		w := w
		go c.readLoop(r, w)
		go func() {
			enc := gob.NewEncoder(w.conn)
			for {
				m, ok := w.out.pop()
				if !ok {
					return
				}
				if err := enc.Encode(m); err != nil {
					r.connBroken(w, err)
					return
				}
			}
		}()
	}

	// Start phase. Extra buckets (Buckets > Workers): each worker natively builds only
	// the node of its own index, so every wrapped-around bucket is adopted
	// fresh (nil snapshot). The adopts precede step 0's message, so each
	// is initialized in step 0's turn as its own node would be.
	r.mu.Lock()
	for b := len(ws); b < len(r.buckets); b++ {
		r.ws[r.buckets[b].owner].out.push(wireMsg{Kind: kindAdopt, Bucket: b})
	}
	for _, w := range ws {
		w.lastHeard = time.Now() // the liveness clock starts now
		w.done = -1
		w.out.push(wireMsg{Kind: kindStep, Profile: c.cfg.Profile})
	}
	r.mu.Unlock()

	// The barrier loop. A stepDone or a broken connection wakes it; the
	// ticker pings and runs the periodic checks. At each barrier the checks
	// run once more, and the run either ends or starts the next step.
	tick := time.NewTicker(c.cfg.tick())
	defer tick.Stop()
	steps := 0
	for {
		select {
		case <-r.wake:
			r.checkLiveness(time.Now())
		case now := <-tick.C:
			r.ping()
			if err := r.checks(now, false); err != nil {
				return nil, err
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dist: run exceeded %v at step %d: %w", c.cfg.Timeout, steps, ErrTimeout)
		}
		if !r.barrier() {
			continue
		}
		if err := r.checks(time.Now(), true); err != nil {
			return nil, err
		}
		steps++
		if !r.advance() {
			break
		}
	}
	if c.cfg.Sink != nil {
		c.cfg.Sink.TermProbe("superstep", steps, true)
	}

	// Collection phase: final pooling. A worker death here is fatal —
	// survivors may already have shipped outputs and exited, so the
	// replay machinery is gone.
	live := r.finish()
	need := make(map[int]bool, len(live))
	for _, wi := range live {
		need[wi] = true
	}
	for len(need) > 0 {
		select {
		case wi := <-r.outputCh:
			delete(need, wi)
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-tick.C:
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("dist: output collection exceeded %v: %w", c.cfg.Timeout, ErrTimeout)
			}
		case <-r.wake:
			r.mu.Lock()
			var broken error
			for _, w := range ws {
				if w.alive && need[w.index] && w.connErr != nil {
					broken = fmt.Errorf("dist: worker %d died after the last step: %v: %w", w.index, w.connErr, ErrWorkerLost)
				}
			}
			r.mu.Unlock()
			if broken != nil {
				return nil, broken
			}
		}
	}

	res := &Result{Output: relation.Store{}}
	if c.cfg.Profile {
		res.Profile = &seminaive.Profile{Engine: "dist"}
	}
	for pred, ar := range c.arities {
		res.Output.Get(pred, ar)
	}
	r.mu.Lock()
	res.Deaths = append(res.Deaths, r.deaths...)
	res.Recoveries = append(res.Recoveries, r.recoveries...)
	res.Checkpoints = r.ckpts
	res.TruncatedBatches = r.truncated
	res.DroppedBatches = r.dropped
	res.Migrations = append(res.Migrations, r.migrations...)
	res.RebalanceRejected = r.rebalRejected
	var outs []*wireMsg
	for _, w := range ws {
		res.WorkerBusy = append(res.WorkerBusy, w.busy)
		if w.output != nil {
			outs = append(outs, w.output)
		}
	}
	homed := len(r.deaths) == 0 && len(r.migrations) == 0 && r.dropped == 0 && r.diverted == 0
	r.mu.Unlock()
	for _, out := range outs {
		res.Stats = append(res.Stats, out.Stats...)
		if res.Profile != nil {
			res.Profile.AddRules(out.Profiles)
		}
	}
	if err := pool(res, outs, homed && !c.cfg.withholdHomes, len(r.buckets)); err != nil {
		return nil, err
	}
	sort.Slice(res.Stats, func(i, j int) bool { return res.Stats[i].Proc < res.Stats[j].Proc })
	res.Wall = time.Since(start)
	if res.Profile != nil {
		res.Profile.WallNs = res.Wall.Nanoseconds()
	}
	return res, nil
}

// pool is the final pooling step over the workers' outputs. A predicate
// every one of the buckets shipped as its home set is, when homed holds, a
// disjoint union: its batches are decoded straight into one relation's
// arena, sized once from their header counts, with no dedup probe and no
// dedup table until something probes the relation. Every other
// predicate's rows are added by union.
func pool(res *Result, outs []*wireMsg, homed bool, buckets int) error {
	homes := map[string]int{}
	total := map[string]int{}
	for _, out := range outs {
		for _, ob := range out.Out {
			if ob.Home {
				homes[ob.Pred]++
			}
			total[ob.Pred] += wire.BatchCount(ob.Raw)
		}
	}
	concat := map[string]bool{}
	for pred, k := range homes {
		if homed && k == buckets && res.Output[pred] != nil {
			concat[pred] = true
			res.Output[pred].GrowArena(total[pred])
			res.Concatenated = append(res.Concatenated, pred)
		}
	}
	sort.Strings(res.Concatenated)
	for _, out := range outs {
		for _, ob := range out.Out {
			dst := res.Output[ob.Pred]
			var n int
			var err error
			if concat[ob.Pred] {
				n, err = wire.DecodeInto(ob.Raw, dst)
			} else {
				n, err = union(res.Output, ob)
			}
			if err != nil {
				return fmt.Errorf("dist: worker %d output for bucket %d: %w", out.Index, ob.Bucket, err)
			}
			res.OutputRows += int64(n)
		}
	}
	return nil
}

// union adds the rows of one output batch to the pooled relation of its
// predicate, dropping the duplicates, and returns the batch's row count.
func union(pooled relation.Store, ob outBatch) (int, error) {
	b, err := wire.DecodeFlat(ob.Raw)
	if err != nil || b.N == 0 {
		return 0, err
	}
	dst, err := pooled.GetChecked(ob.Pred, b.Arity)
	if err != nil {
		return 0, err
	}
	for i := 0; i < b.N; i++ {
		dst.Insert(b.Row(i))
	}
	return b.N, nil
}

// readLoop decodes one worker's inbound stream and hands each message to
// the router, until the worker's output, a bad message or a broken
// connection.
func (c *Coordinator) readLoop(r *router, w *wkState) {
	for {
		var m wireMsg
		err := w.dec.Decode(&m)
		if err == nil {
			err = r.handle(w, m)
		}
		if err != nil {
			r.connBroken(w, err)
			return
		}
		if m.Kind == kindOutput {
			return
		}
	}
}
