package dist

import (
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"parlog/internal/ast"
	"parlog/internal/obs"
	"parlog/internal/parallel"
	"parlog/internal/relation"
	"parlog/internal/store"
	"parlog/internal/wire"
)

// ckptRecord is the record kind checkpoint files carry: a single record
// whose payload is the uvarint checkpoint probe number followed by the
// wire-encoded snapshot blob, framed and checksummed by the store layer.
const ckptRecord byte = 1

// ckptName is the per-bucket checkpoint file inside WorkerConfig.Dir.
func ckptName(bucket int) string { return fmt.Sprintf("ckpt-%04d.ckpt", bucket) }

// persistCheckpoint writes one bucket's snapshot blob atomically; the
// file is either the complete new checkpoint or the previous one. The
// probe number travels inside the record so an adopting worker can tell
// whether the file is the checkpoint the coordinator accepted — or a
// newer one whose reply never arrived.
func persistCheckpoint(dir string, bucket, probe int, snap []byte) error {
	payload := binary.AppendUvarint(make([]byte, 0, len(snap)+binary.MaxVarintLen64), uint64(probe))
	payload = append(payload, snap...)
	_, err := store.WriteAtomic(dir, ckptName(bucket), []store.Record{{Kind: ckptRecord, Payload: payload}}, nil)
	return err
}

// loadCheckpoint reads one bucket's persisted snapshot blob, verifying
// the store-layer checksum. A missing or damaged file returns an error.
func loadCheckpoint(dir string, bucket int) (probe int, snap []byte, err error) {
	recs, err := store.ReadSegment(filepath.Join(dir, ckptName(bucket)))
	if err != nil {
		return 0, nil, err
	}
	if len(recs) != 1 || recs[0].Kind != ckptRecord {
		return 0, nil, fmt.Errorf("dist: checkpoint file for bucket %d has unexpected layout: %w", bucket, store.ErrCorruptSegment)
	}
	p, n := binary.Uvarint(recs[0].Payload)
	if n <= 0 {
		return 0, nil, fmt.Errorf("dist: checkpoint file for bucket %d has a malformed probe header: %w", bucket, store.ErrCorruptSegment)
	}
	return int(p), recs[0].Payload[n:], nil
}

// resolveAdoptSnap turns an adopt message into the snapshot to install.
// A shipped blob (or no checkpoint at all — Sum 0) passes straight
// through. A checksum-only adopt (LocalCheckpoints) loads the blob the
// dead owner persisted to the shared local directory. The file may be
// NEWER than the accepted checkpoint: the previous owner persists before
// replying, so a kill between persist and acceptance leaves probe
// m.Probe+k on disk. A later checkpoint is a superset of an earlier one
// (bucket state only grows), so installing it is monotone-safe; only an
// exact probe match can be verified against the adopt checksum. A
// missing, damaged or stale file is a hard error — unlike a shipped
// adopt, the coordinator has already truncated the log prefix the
// checkpoint covers, so there is no state left to rebuild it from.
func resolveAdoptSnap(dir string, m wireMsg) ([]byte, error) {
	if m.Snap != nil || m.Sum == 0 {
		return m.Snap, nil
	}
	probe, loaded, err := loadCheckpoint(dir, m.Bucket)
	if err != nil {
		return nil, fmt.Errorf("dist: local checkpoint for bucket %d: %w", m.Bucket, err)
	}
	switch {
	case probe < m.Probe:
		return nil, fmt.Errorf("dist: local checkpoint for bucket %d is stale (probe %d, coordinator accepted %d): %w", m.Bucket, probe, m.Probe, store.ErrCorruptSegment)
	case probe == m.Probe && wire.Checksum(loaded) != m.Sum:
		return nil, fmt.Errorf("dist: local checkpoint for bucket %d does not match the coordinator's checksum: %w", m.Bucket, store.ErrCorruptSegment)
	}
	return loaded, nil
}

// DialFunc is the worker's dial hook — net.Dial's signature, so a
// fault.Injector (or any proxy) can stand in for the real stack.
type DialFunc func(network, address string) (net.Conn, error)

// WorkerConfig carries a worker's runtime knobs. The zero value works: real
// dialing, background context, default retry policy, no adoption.
type WorkerConfig struct {
	// Ctx, when non-nil, cancels the worker: the connection is closed and
	// RunWorker returns promptly from any blocking point.
	Ctx context.Context
	// NewNode builds the node for a bucket this worker is told to adopt
	// during recovery: it must return a freshly initialized node holding
	// the bucket's EDB fragment (NewNode(prog, bucket, globalEDB)). A
	// worker with a nil factory fails if asked to adopt — acceptable for
	// deployments that rule out recovery, required otherwise.
	NewNode func(bucket int) *parallel.Node
	// Dial replaces net.Dial for the coordinator connection (fault
	// injection, proxies). Nil means net.Dial.
	Dial DialFunc
	// Dir, when non-empty, is a machine-local directory the worker
	// persists its bucket checkpoints into (one atomically written,
	// checksummed file per bucket). A restarted worker then installs its
	// own bucket's checkpoint from disk at cold start instead of waiting
	// for coordinator replay, and under the coordinator's
	// LocalCheckpoints mode adopt messages carry only a checksum — the
	// survivor loads the blob from this directory. In-process workers
	// (dist.Run) share one directory; the directory must not be reused
	// across different programs.
	Dir string
	// MaxRetries bounds connect attempts (default 5).
	MaxRetries int
	// RetryBase is the first backoff step (default 5ms); backoff doubles
	// per attempt, capped at 1s, with uniform jitter in [b/2, b).
	RetryBase time.Duration
}

func (c *WorkerConfig) fill() {
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
	if c.Dial == nil {
		c.Dial = net.Dial
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 5
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 5 * time.Millisecond
	}
}

// failure latches the first error any worker goroutine hits and signals the
// others. err is published before ch closes, so readers that wait on ch see
// it without further synchronization.
type failure struct {
	once sync.Once
	err  error
	ch   chan struct{}
}

func newFailure() *failure { return &failure{ch: make(chan struct{})} }

func (f *failure) fail(err error) {
	f.once.Do(func() {
		f.err = err
		close(f.ch)
	})
}

// dialRetry dials with exponential backoff and jitter, honoring ctx between
// attempts. The jitter is seeded per call — connect storms after a
// coordinator restart spread out instead of synchronizing.
func dialRetry(ctx context.Context, dial DialFunc, addr string, retries int, base time.Duration) (net.Conn, error) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	backoff := base
	var lastErr error
	for i := 0; i < retries; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		conn, err := dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if i == retries-1 {
			break
		}
		sleep := backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)+1))
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
	return nil, fmt.Errorf("dist: dialing coordinator after %d attempts: %w", retries, lastErr)
}

// RunWorker executes one processor's node against a coordinator: connect
// (with retry), join, take one turn per superstep until the coordinator
// finds a step that moved nothing, then ship outputs and statistics. All
// traffic — control, heartbeats and data batches — flows over the single
// coordinator connection (star topology), which is what lets the
// coordinator log every batch for replay. If the coordinator reassigns a
// dead peer's bucket here, the worker builds a second node via
// cfg.NewNode, installs the bucket's checkpoint and hosts both; outputs
// and stats are then reported per bucket. The reader answers heartbeats
// as they arrive, even mid-turn; every other message waits in a mailbox
// until the next step message, so the data in flight is one superstep's
// output and the barrier is its only throttle. Blocking; returns after
// the coordinator has collected this worker's output, or with an error if
// the connection breaks mid-run (the coordinator then recovers this
// worker's buckets elsewhere).
func RunWorker(coordAddr string, node *parallel.Node, cfg WorkerConfig) error {
	cfg.fill()
	ctx := cfg.Ctx
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return fmt.Errorf("dist: creating checkpoint dir: %w", err)
		}
	}

	conn, err := dialRetry(ctx, cfg.Dial, coordAddr, cfg.MaxRetries, cfg.RetryBase)
	if err != nil {
		return err
	}
	defer conn.Close()
	stopWatch := context.AfterFunc(ctx, func() { conn.Close() })
	defer stopWatch()

	var (
		f          = newFailure()
		wq         = newQueue() // outbound wire messages, serialized by the writer
		mbox       = newQueue() // inbound messages the turns take, in arrival order
		writerDone = make(chan struct{})
	)
	// broken fails the worker and wakes a turn waiting on the mailbox.
	broken := func(err error) {
		f.fail(fmt.Errorf("dist: coordinator connection: %w", err))
		mbox.close()
	}

	// Writer: the only goroutine touching the encoder.
	go func() {
		defer close(writerDone)
		enc := gob.NewEncoder(conn)
		for {
			m, ok := wq.pop()
			if !ok {
				return
			}
			if err := enc.Encode(m); err != nil {
				broken(err)
				return
			}
		}
	}()
	wq.push(wireMsg{Kind: kindJoin, Index: node.Index()})

	// Reader: decodes the coordinator's stream. Heartbeats are answered
	// here, so they keep flowing while a turn is deep in a long drain.
	// Everything else waits in the mailbox for the next turn.
	go func() {
		dec := gob.NewDecoder(conn)
		for {
			var m wireMsg
			if err := dec.Decode(&m); err != nil {
				broken(err)
				return
			}
			switch m.Kind {
			case kindPing:
				wq.push(wireMsg{Kind: kindPong})
			case kindStep, kindData, kindAdopt, kindRelease, kindCheckpointReq, kindFinish:
				mbox.push(m)
			default:
				broken(fmt.Errorf("unexpected message kind %d", m.Kind))
				return
			}
		}
	}()

	fin := func(err error) error {
		wq.close()
		<-writerDone
		return err
	}
	// next takes the mailbox's next message, or the error that ended the
	// connection.
	next := func() (wireMsg, error) {
		m, ok := mbox.pop()
		select {
		case <-f.ch:
			ok = false
		default:
		}
		if !ok {
			if err := ctx.Err(); err != nil {
				return wireMsg{}, err
			}
			return wireMsg{}, f.err
		}
		return m, nil
	}

	// Eval loop (this goroutine). nodes maps hosted buckets to their state
	// machines: the worker's own bucket plus any adopted during recovery.
	// spanSeq numbers this worker's outgoing batches (span ids are
	// origin-qualified, so per-worker counters never collide); curParent is
	// the span of the batch most recently merged, the causal parent of
	// every derivation the following drain ships. Both live on the eval
	// goroutine only — Init, Accept and Drain all run here.
	nodes := map[int]*parallel.Node{node.Index(): node}
	var spanSeq uint64
	var curParent uint64
	mkEmit := func(n *parallel.Node) parallel.EmitFunc {
		return func(dest int, pred string, b relation.Batch) {
			n.RecordSent(dest, b.N)
			spanSeq++
			span := wire.SpanID(n.Index(), spanSeq)
			if sink := n.Sink(); sink != nil {
				sink.MessageSent(n.Proc(), n.PeerProc(dest), pred, b.N)
				obs.SpanSend(sink, n.Proc(), n.PeerProc(dest), pred, b.N, span, curParent)
			}
			wq.push(wireMsg{Kind: kindData, Bucket: dest, From: n.Index(), Pred: pred, Raw: wire.AppendFlat(nil, b), Span: span, Parent: curParent})
		}
	}

	// turn takes step's turn over msgs, the messages that arrived before
	// the step message: adopts and releases in arrival order, then each
	// hosted bucket's batches in sender order, one Node.Turn per bucket in
	// bucket order, then the checkpoint replies. busy accumulates the
	// turns' evaluation time, which travels on each stepDone.
	sink := node.Sink()
	var busy time.Duration
	var profileRun bool // step 0's Profile flag
	// recv holds the values of the data batches one turn decodes, reused
	// from its start every turn: Accept copies each batch into @in, and
	// nothing else (spans, replay, checkpoints) keeps one past the turn.
	var recv []ast.Value
	hostedBuckets := func() []int {
		hosted := make([]int, 0, len(nodes))
		for b := range nodes {
			hosted = append(hosted, b)
		}
		sort.Ints(hosted)
		return hosted
	}
	turn := func(step wireMsg, msgs []wireMsg) error {
		if step.Step > 0 && len(msgs) == 0 {
			return nil // nothing arrived: an empty turn
		}
		fresh := map[int]bool{}               // buckets whose first turn this is: Init them
		inbox := map[int][]parallel.Message{} // each bucket's rows and batches, in Accept order
		parent := map[int]uint64{}            // each bucket's last merged span
		snapRows := func(bucket int, snap []byte) error {
			return wire.DecodeSnapshot(snap, func(pred string, b relation.Batch) error {
				inbox[bucket] = append(inbox[bucket], parallel.Message{From: -1, Pred: pred, Batch: b})
				return nil
			})
		}
		if step.Step == 0 {
			if profileRun = step.Profile; profileRun {
				node.EnableProfile()
			}
			fresh[node.Index()] = true
			if cfg.Dir != "" {
				// Cold-start recovery: a checkpoint this worker persisted
				// in an earlier life restores its bucket's derived set
				// from local disk, so the coordinator need not replay the
				// covered log prefix. Opportunistic — a missing or damaged
				// file just means starting from the EDB fragment.
				// Installing a checkpoint is monotone-safe: it is a subset
				// of the bucket's least model, and draining from any
				// superset of the EDB converges to the same fixpoint.
				if _, snap, err := loadCheckpoint(cfg.Dir, node.Index()); err == nil {
					_ = snapRows(node.Index(), snap)
				}
			}
		}
		var data, ckptReqs []wireMsg
		for _, m := range msgs {
			switch m.Kind {
			case kindAdopt:
				if cfg.NewNode == nil {
					return fmt.Errorf("dist: asked to adopt bucket %d but no node factory configured", m.Bucket)
				}
				n := cfg.NewNode(m.Bucket)
				if profileRun {
					n.EnableProfile()
				}
				// The bucket's turn Inits it, replaying its
				// initialization step: the EDB fragment is rebuilt locally
				// and its initial derivations re-sent (receivers drop what
				// they already hold). It then installs the bucket's last
				// accepted checkpoint, which restores every derived tuple
				// the truncated log prefix would have delivered, and the
				// suffix the coordinator replays behind the adopt completes
				// the history. Under LocalCheckpoints the adopt carries
				// only the checkpoint's checksum; the blob is on this
				// machine's disk, persisted by the bucket's previous owner.
				snap, err := resolveAdoptSnap(cfg.Dir, m)
				if err != nil {
					return err
				}
				nodes[m.Bucket], fresh[m.Bucket], inbox[m.Bucket] = n, true, nil
				if err := snapRows(m.Bucket, snap); err != nil {
					return fmt.Errorf("dist: adopt snapshot for bucket %d: %w", m.Bucket, err)
				}
			case kindRelease:
				// The bucket migrated to another worker: drop its node.
				// Its batches below are discarded; the new owner receives
				// the same batches via log replay.
				delete(nodes, m.Bucket)
			case kindCheckpointReq:
				ckptReqs = append(ckptReqs, m)
			case kindData:
				data = append(data, m)
			}
		}
		if sink != nil {
			sink.WorkerBusy(node.Proc())
		}
		// Sender order, as at the in-process barrier; one sender's batches
		// keep the order it sent them in.
		sort.SliceStable(data, func(i, j int) bool { return data[i].From < data[j].From })
		recv = recv[:0]
		for _, m := range data {
			n := nodes[m.Bucket]
			if n == nil {
				continue
			}
			var b relation.Batch
			var err error
			b, recv, err = wire.DecodeAppend(recv, m.Raw)
			if err != nil {
				return fmt.Errorf("dist: data batch for bucket %d: %w", m.Bucket, err)
			}
			if m.Span != 0 {
				if sink := n.Sink(); sink != nil {
					obs.SpanRecv(sink, n.Proc(), n.PeerProc(m.From), m.Pred, b.N, m.Span, m.Parent)
				}
				parent[m.Bucket] = m.Span
			}
			inbox[m.Bucket] = append(inbox[m.Bucket], parallel.Message{From: m.From, Pred: m.Pred, Batch: b})
		}
		for _, b := range hostedBuckets() {
			if fresh[b] || len(inbox[b]) > 0 {
				// The turn's derivations are caused by the bucket's last
				// merged batch (a linearization, not a loss).
				curParent = parent[b]
				busy += nodes[b].Turn(fresh[b], inbox[b], mkEmit(nodes[b]))
			}
		}
		// Checkpoint replies are taken after the turns, so a snapshot
		// covers every batch logged before its request.
		for _, req := range ckptReqs {
			n := nodes[req.Bucket]
			if n == nil {
				continue // stale request for a bucket this worker no longer hosts
			}
			snap := wire.AppendSnapshot(nil, n.Snapshot())
			if cfg.Dir != "" {
				// Persist before replying: the coordinator may reference
				// this blob by checksum alone (LocalCheckpoints), so it
				// must be on disk before the reply can trigger truncation.
				// A failed write skips the reply — the coordinator treats
				// it as dropped and simply replays a longer suffix.
				if err := persistCheckpoint(cfg.Dir, req.Bucket, req.Probe, snap); err != nil {
					continue
				}
			}
			wq.push(wireMsg{
				Kind: kindCheckpointReply, Bucket: req.Bucket, Probe: req.Probe,
				Snap: snap, Sum: wire.Checksum(snap),
			})
		}
		if sink != nil {
			sink.WorkerIdle(node.Proc())
		}
		return nil
	}

	for {
		var msgs []wireMsg
		m, err := next()
		for ; err == nil && m.Kind != kindStep && m.Kind != kindFinish; m, err = next() {
			msgs = append(msgs, m)
		}
		if err != nil {
			return fin(err)
		}
		if m.Kind == kindFinish {
			break
		}
		if err := turn(m, msgs); err != nil {
			return fin(err)
		}
		wq.push(wireMsg{Kind: kindStepDone, Step: m.Step, Busy: int64(busy)})
	}

	// Each node ships its home sets, or else only the tuples it generated:
	// the received rows were generated, and are shipped, elsewhere.
	out := wireMsg{Kind: kindOutput, Index: node.Index()}
	for _, b := range hostedBuckets() {
		n := nodes[b]
		out.Stats = append(out.Stats, n.Stats())
		out.Profiles = append(out.Profiles, n.Profile()...)
		n.Output(func(pred string, home bool, fb relation.Batch) {
			out.Out = append(out.Out, outBatch{Bucket: b, Pred: pred, Home: home, Raw: wire.AppendFlat(nil, fb)})
		})
	}
	wq.push(out)
	return fin(nil)
}
