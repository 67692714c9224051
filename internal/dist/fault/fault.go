// Package fault is a deterministic fault-injection layer for the TCP
// runtime: net.Conn and net.Listener wrappers that drop dial attempts,
// delay writes, or kill connections on a seeded schedule. Because faults
// fire on logical events (the n-th dial, the first write of the n-th
// connection after a runtime hook arms the injector) rather than on
// wall-clock timers or real process kills, a recovery scenario is
// reproducible under the race detector with nothing but an Injector
// plugged into the runtime's dial hook.
package fault

import (
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the error every injected failure wraps, so tests can
// distinguish scheduled faults from genuine network errors.
var ErrInjected = errors.New("fault: injected failure")

// Schedule is a deterministic fault plan. Ordinals are 1-based and count
// events per Injector in order of occurrence: with a fixed schedule and a
// deterministic sequence of Dial/Accept calls, the same faults fire at the
// same logical points every run. The zero value injects nothing.
type Schedule struct {
	// Seed drives the jittered component of write delays. Two injectors
	// with equal schedules produce identical delay sequences.
	Seed int64
	// FailDials fails the first FailDials Dial calls with ErrInjected
	// before letting one through (exercises connect retry).
	FailDials int
	// KillConn is the 1-based ordinal of the wrapped connection to kill;
	// 0 kills none. The connection dies at its first write after Arm:
	// that write closes the underlying connection and returns
	// ErrInjected, so the peer sees a reset mid-stream. A test arms the
	// injector from a runtime hook, so the kill follows a logical event
	// of the run (say, the first batch the coordinator routes to the
	// victim's bucket) instead of a write count whose place in the run
	// depends on how fast the peers compute.
	KillConn int
	// Delay is added to every Write on every wrapped connection.
	Delay time.Duration
	// Jitter adds a seeded-uniform extra delay in [0, Jitter) per write.
	Jitter time.Duration
}

// Injector applies a Schedule to the connections it wraps. Safe for
// concurrent use; all counters are internally synchronized.
type Injector struct {
	mu    sync.Mutex
	sched Schedule
	rng   *rand.Rand
	dials int
	conns int
	armed bool
}

// New returns an injector for the given schedule.
func New(sched Schedule) *Injector {
	return &Injector{sched: sched, rng: rand.New(rand.NewSource(sched.Seed))}
}

// Dial counts a dial attempt, failing it if the schedule says so, and
// otherwise dials for real and wraps the resulting connection. Its
// signature matches the runtime's dial hook.
func (in *Injector) Dial(network, address string) (net.Conn, error) {
	in.mu.Lock()
	in.dials++
	fail := in.dials <= in.sched.FailDials
	in.mu.Unlock()
	if fail {
		return nil, ErrInjected
	}
	c, err := net.Dial(network, address)
	if err != nil {
		return nil, err
	}
	return in.Wrap(c), nil
}

// Wrap returns c under the injector's schedule. The wrapped connection is
// assigned the next connection ordinal.
func (in *Injector) Wrap(c net.Conn) net.Conn {
	in.mu.Lock()
	in.conns++
	id := in.conns
	in.mu.Unlock()
	return &conn{Conn: c, in: in, id: id}
}

// Listener wraps ln so every accepted connection is scheduled, for
// injecting faults on the accepting side.
func (in *Injector) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, in: in}
}

// Arm releases the schedule's kill: the KillConn connection dies at its
// next write. Arming again is harmless.
func (in *Injector) Arm() {
	in.mu.Lock()
	in.armed = true
	in.mu.Unlock()
}

// killDue reports whether the KillConn connection dies at its next write.
func (in *Injector) killDue() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.armed
}

// Dials reports how many Dial calls the injector has seen.
func (in *Injector) Dials() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.dials
}

// delay computes the next write delay (base + seeded jitter).
func (in *Injector) delay() time.Duration {
	d := in.sched.Delay
	if in.sched.Jitter > 0 {
		in.mu.Lock()
		d += time.Duration(in.rng.Int63n(int64(in.sched.Jitter)))
		in.mu.Unlock()
	}
	return d
}

type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.Wrap(c), nil
}

// conn injects the schedule's write faults over an underlying connection.
type conn struct {
	net.Conn
	in *Injector
	id int

	mu     sync.Mutex
	killed bool
}

func (c *conn) Write(p []byte) (int, error) {
	if d := c.in.delay(); d > 0 {
		time.Sleep(d)
	}
	c.mu.Lock()
	if c.killed {
		c.mu.Unlock()
		return 0, ErrInjected
	}
	if c.in.sched.KillConn == c.id && c.in.killDue() {
		c.killed = true
		c.mu.Unlock()
		// Close the underlying conn so the peer observes the failure
		// mid-stream, exactly like a crashed process.
		c.Conn.Close()
		return 0, ErrInjected
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	killed := c.killed
	c.mu.Unlock()
	if killed {
		return 0, ErrInjected
	}
	return c.Conn.Read(p)
}

// Checkpoint-message fault actions, the values a runtime checkpoint-fault
// hook returns. Kept as plain ints so the runtime does not need to import
// this package to declare its hook.
const (
	CkptPass    = 0 // deliver the checkpoint reply untouched
	CkptDrop    = 1 // discard the reply in transit (log stays untruncated)
	CkptCorrupt = 2 // flip the reply's payload so the checksum fails
)

// CheckpointPlan schedules message-level checkpoint faults by ordinal:
// the n-th checkpoint reply the coordinator receives is dropped or
// corrupted per the plan. Deterministic and safe for concurrent use.
type CheckpointPlan struct {
	mu      sync.Mutex
	drop    map[int]bool
	corrupt map[int]bool
	n       int
}

// NewCheckpointPlan builds a plan from 1-based reply ordinals.
func NewCheckpointPlan(dropNth, corruptNth []int) *CheckpointPlan {
	p := &CheckpointPlan{drop: map[int]bool{}, corrupt: map[int]bool{}}
	for _, n := range dropNth {
		p.drop[n] = true
	}
	for _, n := range corruptNth {
		p.corrupt[n] = true
	}
	return p
}

// Next counts one checkpoint reply and returns its scheduled action.
func (p *CheckpointPlan) Next() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.n++
	switch {
	case p.drop[p.n]:
		return CkptDrop
	case p.corrupt[p.n]:
		return CkptCorrupt
	}
	return CkptPass
}

// Seen reports how many checkpoint replies the plan has counted.
func (p *CheckpointPlan) Seen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// DiskPlan schedules disk-write faults by ordinal: the n-th physical
// write of a durable store dies cleanly (nothing persisted), tears
// (half the bytes persist, then death) or is silently corrupted (one
// flipped byte, write "succeeds"). Its BeforeWrite method matches the
// store package's WriteHook signature — func(name string, data []byte)
// ([]byte, error) — without importing it, the same decoupling as the
// checkpoint actions above. Once a kill or tear fires the plan is dead:
// every later write fails too, like the process it simulates.
// Deterministic and safe for concurrent use.
type DiskPlan struct {
	mu        sync.Mutex
	writes    int
	segWrites int
	killAt    int
	tearAt    int
	corrupt   map[int]bool
	// corruptSegNth corrupts the nth segment-file write (counted
	// separately from WAL appends, matched by file name).
	corruptSegNth int
	dead          bool
}

// NewDiskPlan returns an empty plan (no faults).
func NewDiskPlan() *DiskPlan { return &DiskPlan{corrupt: map[int]bool{}} }

// KillAt schedules the nth write (1-based) to fail with nothing
// persisted — a clean crash at the write boundary.
func (p *DiskPlan) KillAt(n int) *DiskPlan {
	p.mu.Lock()
	p.killAt = n
	p.mu.Unlock()
	return p
}

// TearAt schedules the nth write to persist only its first half before
// failing — a torn record, the residue of a crash mid-syscall.
func (p *DiskPlan) TearAt(n int) *DiskPlan {
	p.mu.Lock()
	p.tearAt = n
	p.mu.Unlock()
	return p
}

// CorruptAt schedules one flipped byte in the nth write, which otherwise
// succeeds — silent corruption the checksums must catch at recovery.
func (p *DiskPlan) CorruptAt(n int) *DiskPlan {
	p.mu.Lock()
	p.corrupt[n] = true
	p.mu.Unlock()
	return p
}

// CorruptSegment schedules one flipped byte in the nth segment-file
// write (files named "seg-*"), leaving WAL appends untouched.
func (p *DiskPlan) CorruptSegment(n int) *DiskPlan {
	p.mu.Lock()
	p.corruptSegNth = n
	p.mu.Unlock()
	return p
}

// BeforeWrite applies the plan to one physical write — the store layer's
// write hook.
func (p *DiskPlan) BeforeWrite(name string, data []byte) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return nil, ErrInjected
	}
	p.writes++
	isSeg := strings.HasPrefix(name, "seg-")
	if isSeg {
		p.segWrites++
	}
	switch {
	case p.writes == p.killAt:
		p.dead = true
		return nil, ErrInjected
	case p.writes == p.tearAt:
		p.dead = true
		return data[:len(data)/2], ErrInjected
	case p.corrupt[p.writes], isSeg && p.segWrites == p.corruptSegNth:
		out := append([]byte(nil), data...)
		if len(out) > 0 {
			out[len(out)-1] ^= 0xFF
		}
		return out, nil
	}
	return data, nil
}

// Writes reports how many physical writes the plan has counted (the
// write-point space a crash differential iterates over); SegWrites how
// many of them were segment files.
func (p *DiskPlan) Writes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.writes
}

func (p *DiskPlan) SegWrites() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.segWrites
}

// MisroutePlan schedules router-level misrouting by ordinal: the n-th data
// batch the coordinator accepts is redirected to a fixed wrong bucket —
// traffic the minimal network graph never predicted, which the
// conformance auditor must flag. Deterministic and safe for concurrent
// use; wire it to dist.Config.RouteFault via Route.
type MisroutePlan struct {
	mu sync.Mutex
	// nth maps 1-based accepted-batch ordinals to the bucket the batch is
	// diverted to.
	nth map[int]int
	// from maps worker indices to a bucket: every data batch from that
	// worker is diverted there, regardless of ordinal.
	from map[int]int
	n    int
}

// NewMisroutePlan diverts the nth-th accepted data batch to bucket to.
func NewMisroutePlan(nth, to int) *MisroutePlan {
	return &MisroutePlan{nth: map[int]int{nth: to}}
}

// Divert adds another scheduled diversion to the plan.
func (p *MisroutePlan) Divert(nth, to int) *MisroutePlan {
	p.mu.Lock()
	p.nth[nth] = to
	p.mu.Unlock()
	return p
}

// DivertAllFrom reroutes every data batch accepted from the given worker
// to the fixed bucket — the sustained variant for tests that need a
// *non-empty* batch diverted without knowing which ordinal carries
// tuples (workers also ship zero-tuple defensive batches, which the
// auditor rightly ignores).
func (p *MisroutePlan) DivertAllFrom(worker, to int) *MisroutePlan {
	p.mu.Lock()
	if p.from == nil {
		p.from = map[int]int{}
	}
	p.from[worker] = to
	p.mu.Unlock()
	return p
}

// Route counts one accepted data batch and returns the bucket to deliver
// it to — dist.Config.RouteFault's signature.
func (p *MisroutePlan) Route(fromWorker, bucket int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.n++
	if to, ok := p.from[fromWorker]; ok {
		return to
	}
	if to, ok := p.nth[p.n]; ok {
		return to
	}
	return bucket
}

// Seen reports how many data batches the plan has counted.
func (p *MisroutePlan) Seen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}
