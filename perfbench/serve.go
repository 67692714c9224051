package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"parlog"
)

// The serving half of every workload: a durable View over ancestor on a
// complete ternary tree of depth 7 (3,280 nodes, 21,324 anc tuples). Writes add an
// edge from a lower to a higher node id, which keeps the graph acyclic:
// on a cyclic graph one DRed delete over-deletes nearly the whole closure
// and takes seconds, which would swamp every other number.
const (
	treeBranch  = 3
	treeDepth   = 7
	serveSetups = 41 // Opens timed for setup_s
	readShare   = 0.8
	insertShare = 0.1 // deletes take the rest
	checkEvery  = 256 // ops between full-model checks
	// roundOps is the length of a round. Every round starts from a view
	// newly opened over the tree, and the view's heap is measured at its
	// end. Deleted rows stay in the view's arenas, so its heap and its
	// snapshot rebuilds grow with the ops applied; rounds of a fixed
	// length keep a faster host from reading as a bigger or slower view.
	roundOps = 8192
	// serveYardstickRef is the wall time of serveSetupYardstick on the
	// reference host, as tcYardstickRef is tc's.
	serveYardstickRef = 3.1e-3
	// yardSegment and yardRecord are the sizes the yardsticks write and
	// sync: about the state directory after Open, and one WAL record.
	yardSegment = 32 << 10
	yardRecord  = 32
)

// tree returns the parent→child edges of a complete tree with nodes
// numbered breadth-first from 0, so every edge goes from a lower id to a
// higher one, plus the number of internal nodes (ids 0…internal−1).
func tree(branch, depth int) (g *digraph, list [][2]int32, internal int) {
	n, level := 1, 1
	for d := 0; d < depth; d++ {
		level *= branch
		n += level
	}
	internal = n - level
	g = newDigraph(n)
	for p := 0; p < internal; p++ {
		for b := 1; b <= branch; b++ {
			c := int32(p*branch + b)
			g.add(int32(p), c)
			list = append(list, [2]int32{int32(p), c})
		}
	}
	return g, list, internal
}

// servedView is a View with the names of its nodes.
type servedView struct {
	prog   *parlog.Program
	view   *parlog.View
	vals   []parlog.Value
	nodeOf map[parlog.Value]int32
	dir    string
}

// openServe is the serving half's set-up: parse the program, build the par
// relation over named nodes, and Open a durable view in a new directory
// under out (initial materialization and first segment).
func openServe(ctx context.Context, n int, list [][2]int32, out string) (*servedView, error) {
	dir, err := os.MkdirTemp(out, "perfbench-serve-")
	if err != nil {
		return nil, err
	}
	sv := &servedView{vals: make([]parlog.Value, n), nodeOf: make(map[parlog.Value]int32, n), dir: dir}
	if sv.prog, err = parlog.Parse(ancestorSrc); err != nil {
		return sv, err
	}
	for i := range sv.vals {
		sv.vals[i] = sv.prog.Intern(fmt.Sprintf("n%d", i))
		sv.nodeOf[sv.vals[i]] = int32(i)
	}
	rel := parlog.NewRelation(2)
	for _, e := range list {
		rel.Insert(parlog.Tuple{sv.vals[e[0]], sv.vals[e[1]]})
	}
	sv.view, err = parlog.Open(ctx, sv.prog, parlog.Store{"par": rel}, parlog.EvalOptions{Dir: dir})
	return sv, err
}

func (sv *servedView) node(v parlog.Value) (int32, bool) {
	i, ok := sv.nodeOf[v]
	return i, ok
}

func (sv *servedView) close() error {
	var err error
	if sv.view != nil {
		err = sv.view.Close()
	}
	if rerr := os.RemoveAll(sv.dir); err == nil {
		err = rerr
	}
	return err
}

// reopen closes the view and opens its directory again, as a restarted
// server would, and returns the time both took.
func (sv *servedView) reopen(ctx context.Context, tr *tracer) (time.Duration, error) {
	var err error
	d := tr.do("parlog.reopen", -1, func() {
		if err = sv.view.Close(); err != nil {
			return
		}
		sv.view, err = parlog.Open(ctx, sv.prog, nil, parlog.EvalOptions{Dir: sv.dir})
	})
	return d, err
}

// checkModel compares the view's whole anc relation with the closure of
// the oracle's current edge set.
func (sv *servedView) checkModel(g *digraph) error {
	snap, err := sv.view.Snapshot()
	if err != nil {
		return err
	}
	return closureOf(g).check(snap.Store()["anc"], sv.node)
}

// Operation kinds of the mix.
const (
	opReadFresh = iota // first read after a write: the snapshot is rebuilt
	opReadWarm         // later read at the same epoch
	opInsert
	opDelete
)

// opSample is one timed operation, with the time of the yardstick timed
// right before it (fresh reads and writes). For writes, work is
// ApplyStats.Wall (the maintenance fixpoint) and compacted says whether
// the state directory rewrote its segment during the Apply. An untraced read of the
// traced run recorded no spans.
type opSample struct {
	kind                uint8
	compacted, untraced bool
	lat, work, ref      time.Duration
	// snap and query split a traced read; walBytes, firings, overdeleted
	// and rederived describe a write.
	snap, query            time.Duration
	walBytes               int64
	firings                int64
	overdeleted, rederived int
}

func runServe(cfg config, t *tally, r report) (prov provenance, err error) {
	prov = provenance{Workers: 0, Fsync: "always"}
	ctx := context.Background()
	g, list, internal := tree(treeBranch, treeDepth)
	want := closureOf(g)
	in := make([][]int32, g.n)
	for _, e := range list {
		in[e[1]] = append(in[e[1]], e[0])
	}
	m := &mix{
		cfg: cfg, list: list, n: g.n, internal: internal,
		goals: make([]string, internal),
		pairs: want.pairs(),
		row:   make([]uint64, g.words()),
		queue: make([]int32, 0, g.n),
	}
	for c := range m.goals {
		m.goals[c] = fmt.Sprintf("anc(n%d, X)", c)
	}
	if m.yard, err = os.CreateTemp(cfg.out, "perfbench-yardstick-"); err != nil {
		return prov, err
	}
	defer func() {
		m.yard.Close()
		if rerr := os.Remove(m.yard.Name()); err == nil {
			err = rerr
		}
		if m.sv != nil {
			if cerr := m.sv.close(); err == nil {
				err = cerr
			}
		}
	}()

	// The set-up views only time Open; every round opens its own.
	var setup, yard []float64
	segment := make([]byte, yardSegment)
	for i := 0; i < serveSetups; i++ {
		runtime.GC()
		start := time.Now()
		err := serveSetupYardstick(list, in, want.total, cfg.out, segment)
		yard = append(yard, time.Since(start).Seconds())
		if err != nil {
			return prov, err
		}
		if err := m.open(ctx, t); err != nil {
			return prov, err
		}
		setup = append(setup, m.openTime.Seconds())
		err = m.sv.close()
		m.sv = nil
		if err != nil {
			return prov, err
		}
	}
	if cfg.tr == nil {
		setupS, err := setupSeconds(setup, yard, serveYardstickRef)
		if err != nil {
			return prov, err
		}
		fmt.Printf("# serve setup_wall_s %.6f  yardstick_s %.6f (medians)\n", median(setup), median(yard))
		r.add("setup_s", setupS, "s")
	}
	return prov, m.run(ctx, t, r)
}

// serveSetupYardstick is the serving half's set-up yardstick, as Open
// materializes the model and writes its first segment: the benchmark's
// own semi-naive closure of the tree over Go maps, then a new file of
// segment's bytes written and synced in dir.
func serveSetupYardstick(list [][2]int32, in [][]int32, total int, dir string, segment []byte) error {
	if size, _ := hashClosure(list, in); size != total {
		return fmt.Errorf("reference closure has %d tuples, the oracle %d", size, total)
	}
	f, err := os.CreateTemp(dir, "perfbench-yardstick-")
	if err != nil {
		return err
	}
	_, err = f.Write(segment)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if rerr := os.Remove(f.Name()); err == nil {
		err = rerr
	}
	return err
}

// hashPairs is a fresh read's yardstick, as rebuilding a snapshot
// re-inserts the model's live rows: inserting the tree's closure into a
// new hash set. It returns the set's size.
func hashPairs(pairs [][2]int32) int {
	set := make(map[[2]int32]struct{})
	for _, p := range pairs {
		set[p] = struct{}{}
	}
	return len(set)
}

// mix is the closed-loop client of the serving half: one operation at a time,
// each issued when the previous one returned.
type mix struct {
	cfg      config
	sv       *servedView
	list     [][2]int32 // the tree's edges
	n        int        // the tree's nodes
	g        *digraph   // the oracle's current edge set
	internal int
	goals    []string
	pairs    [][2]int32 // the tree's closure, hashPairs' input
	yard     *os.File   // the write yardstick's file
	samples  []opSample // all rounds' operations
	round    []opSample // this round's
	inserted [][2]int32 // this round's buffer of inserted edges, for deletes
	row      []uint64
	queue    []int32
	ops      int // operations issued in all rounds
	// openTime is the last Open's wall time, heapBase the live heap
	// before it, and heapMB the view's footprint at the end of each round.
	openTime        time.Duration
	heapBase        uint64
	heapMB          []float64
	snapshots, hits int
}

// open opens a new view over the tree for the next round. The round's
// oracle graph and sample buffer exist before the heap baseline is taken,
// so the view's footprint does not include them.
func (m *mix) open(ctx context.Context, t *tally) error {
	m.g, _, _ = tree(treeBranch, treeDepth)
	m.round = make([]opSample, 0, roundOps)
	m.inserted = make([][2]int32, 0, roundOps)
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m.heapBase = before.HeapAlloc
	start := time.Now()
	sv, err := openServe(ctx, m.n, m.list, m.cfg.out)
	m.openTime = time.Since(start)
	if !t.record(err) {
		if sv != nil {
			sv.close()
		}
		return fmt.Errorf("open: %w", err)
	}
	m.sv = sv
	return nil
}

// run makes rounds until the measuring time is over, at least one.
func (m *mix) run(ctx context.Context, t *tally, r report) error {
	tr := m.cfg.tr
	rng := rand.New(rand.NewSource(m.cfg.seed))
	deadline := time.Now().Add(m.cfg.measure)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		if m.sv != nil {
			err := m.sv.close()
			m.sv = nil
			if err != nil {
				return err
			}
		}
		if err := m.open(ctx, t); err != nil {
			return err
		}
		if err := m.play(ctx, rng, t); err != nil {
			return err
		}
	}

	var lat [4][]float64
	var applies []float64
	var total time.Duration
	for _, s := range m.samples {
		lat[s.kind] = append(lat[s.kind], float64(s.lat.Nanoseconds()))
		total += s.lat
		if s.kind >= opInsert {
			applies = append(applies, float64(s.lat.Nanoseconds()))
		}
	}
	for k, l := range lat {
		if len(l) == 0 {
			return fmt.Errorf("no samples of operation kind %d", k)
		}
	}
	fmt.Printf("# rounds %d, ops %d (fresh reads %d, warm reads %d, inserts %d, deletes %d); apply_p99_ms rests on %d applies, %d beyond it\n",
		m.ops/roundOps, len(m.samples), len(lat[opReadFresh]), len(lat[opReadWarm]), len(lat[opInsert]), len(lat[opDelete]),
		len(applies), beyond(len(applies), 0.99))
	if tr == nil {
		return m.ratios(r)
	}
	// The latencies and the throughput swing with the host's disk and
	// load from run to run by more than any bound an end-to-end metric
	// may have, so the traced run reports them (README.md).
	r.set("ops_s", float64(len(m.samples))/total.Seconds(), "ops/s")
	r.set("read_fresh_ms", median(lat[opReadFresh])/1e6, "ms")
	r.set("read_warm_us", median(lat[opReadWarm])/1e3, "us")
	r.set("insert_ms", median(lat[opInsert])/1e6, "ms")
	r.set("delete_ms", median(lat[opDelete])/1e6, "ms")
	r.set("apply_p99_ms", quantile(applies, 0.99)/1e6, "ms")
	return m.layers(ctx, float64(m.hits)/float64(m.snapshots), t, r)
}

// ratios sets the end-to-end run's serving metrics: each operation kind's
// latency over its yardstick's, paired op by op, and the view's footprint.
func (m *mix) ratios(r report) error {
	var lat, ref [4][]float64
	for _, s := range m.samples {
		if s.kind != opReadWarm {
			lat[s.kind] = append(lat[s.kind], float64(s.lat.Nanoseconds()))
			ref[s.kind] = append(ref[s.kind], float64(s.ref.Nanoseconds()))
		}
	}
	for _, x := range []struct {
		name string
		kind int
	}{{"read_fresh_over_ref", opReadFresh}, {"insert_over_fsync", opInsert}, {"delete_over_fsync", opDelete}} {
		v, err := pairedRatio(lat[x.kind], ref[x.kind])
		if err != nil {
			return fmt.Errorf("%s: %w", x.name, err)
		}
		fmt.Printf("# %s: latency %.1f us, yardstick %.1f us (medians)\n", x.name, median(lat[x.kind])/1e3, median(ref[x.kind])/1e3)
		r.set(x.name, v, "ratio")
	}
	r.set("view_heap_mb", median(m.heapMB), "MB")
	return nil
}

// play runs one round: roundOps operations of the mix on the newly
// opened view, then it measures the view's footprint.
func (m *mix) play(ctx context.Context, rng *rand.Rand, t *tally) error {
	tr := m.cfg.tr
	sv, g, inserted := m.sv, m.g, m.inserted
	var record [yardRecord]byte
	dirty := true
	var last *parlog.Snapshot

	for i := 0; i < roundOps; i++ {
		op := m.ops
		m.ops++
		x := rng.Float64()
		switch {
		case x < readShare:
			c := int32(rng.Intn(m.internal))
			s := opSample{kind: opReadWarm}
			if dirty {
				s.kind = opReadFresh
				var n int
				s.ref = tr.do("bench.yardstick", op, func() { n = hashPairs(m.pairs) })
				if n != len(m.pairs) {
					return fmt.Errorf("yardstick set has %d of %d pairs", n, len(m.pairs))
				}
			}
			var snap *parlog.Snapshot
			var answers []parlog.Tuple
			var err error
			read := func(tr *tracer) {
				s.snap = tr.do("parlog.View.Snapshot", op, func() { snap, err = sv.view.Snapshot() })
				if err != nil {
					return
				}
				s.query = tr.do("parlog.Snapshot.Query", op, func() {
					var qr *parlog.QueryResult
					if qr, err = snap.Query(ctx, m.goals[c]); err == nil {
						answers = qr.All()
						err = qr.Err()
					}
				})
			}
			rt := tr
			if tr != nil && s.kind == opReadWarm && op%2 == 1 {
				// Every other warm read of the traced run records no
				// spans: the tracing overhead's baseline.
				rt, s.untraced = nil, true
			}
			s.lat = rt.do("op.read", op, func() { read(rt) })
			if err == nil {
				m.snapshots++
				if snap == last {
					m.hits++
				}
				last = snap
				err = checked(tr, op, func() error {
					clear(m.row)
					k := g.reach(c, m.row, m.queue)
					return checkAnswers(answers, c, m.row, k, sv.node)
				})
			}
			if t.record(err) {
				m.round = append(m.round, s)
			}
			dirty = false
		default:
			s := opSample{kind: opInsert}
			var a, b int32
			delta := parlog.NewDelta()
			if x < readShare+insertShare || len(inserted) == 0 {
				for {
					a = int32(rng.Intn(g.n - 1))
					b = a + 1 + int32(rng.Intn(g.n-1-int(a)))
					if !g.has[[2]int32{a, b}] {
						break
					}
				}
				delta.Add("par", parlog.Tuple{sv.vals[a], sv.vals[b]})
			} else {
				s.kind = opDelete
				j := rng.Intn(len(inserted))
				a, b = inserted[j][0], inserted[j][1]
				inserted[j] = inserted[len(inserted)-1]
				inserted = inserted[:len(inserted)-1]
				delta.Remove("par", parlog.Tuple{sv.vals[a], sv.vals[b]})
			}
			// The yardstick appends about one WAL record to a file of its
			// own and syncs it, as Apply does before it acknowledges.
			var err error
			s.ref = tr.do("bench.yardstick", op, func() {
				if _, err = m.yard.Write(record[:]); err == nil {
					err = m.yard.Sync()
				}
			})
			if err != nil {
				return err
			}
			before := sv.view.DurabilityStats()
			var st *parlog.ApplyStats
			s.lat = tr.do("parlog.View.Apply", op, func() { st, err = sv.view.Apply(*delta) })
			after := sv.view.DurabilityStats()
			if s.kind == opInsert {
				g.add(a, b)
				inserted = append(inserted, [2]int32{a, b})
			} else {
				g.remove(a, b)
			}
			dirty = true
			if err == nil && st.Inserted+st.Deleted == 0 {
				err = fmt.Errorf("apply of edge (%d, %d) changed nothing", a, b)
			}
			if !t.record(err) {
				continue
			}
			s.work = st.Wall
			s.compacted = after.SegmentEpoch != before.SegmentEpoch
			s.walBytes = after.WALBytes - before.WALBytes
			s.firings, s.overdeleted, s.rederived = st.Firings, st.Overdeleted, st.Rederived
			m.round = append(m.round, s)
		}
		if i%checkEvery == checkEvery-1 {
			t.record(checked(tr, op, func() error { return sv.checkModel(g) }))
		}
	}
	if tr == nil {
		// The footprint holds the view's cached snapshot, as a serving
		// view holds one, and nothing the benchmark keeps: last is
		// dropped first.
		last = nil
		if _, err := sv.view.Snapshot(); err != nil {
			return err
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m.heapMB = append(m.heapMB, (float64(ms.HeapAlloc)-float64(m.heapBase))/1e6)
	}
	m.samples = append(m.samples, m.round...)
	return nil
}

// layers reports the traced run's per-layer metrics: maintenance
// (seminaive IVM), the state directory (store), the snapshot and query
// path (parlog), and the cost of reopening the directory.
func (m *mix) layers(ctx context.Context, hitRatio float64, t *tally, r report) error {
	var ivmIns, ivmDel, wal, plain, compacting, snapUs, queryUs, traced, untraced []float64
	var walBytes, firings int64
	var writes, plainWrites, overdeleted, rederived, deletes int
	for _, s := range m.samples {
		switch s.kind {
		case opReadFresh, opReadWarm:
			if s.untraced {
				untraced = append(untraced, float64(s.lat.Nanoseconds())/1e3)
				continue
			}
			queryUs = append(queryUs, float64(s.query.Nanoseconds())/1e3)
			if s.kind == opReadFresh {
				snapUs = append(snapUs, float64(s.snap.Nanoseconds())/1e3)
			} else {
				traced = append(traced, float64(s.lat.Nanoseconds())/1e3)
			}
			continue
		case opInsert:
			ivmIns = append(ivmIns, float64(s.work.Nanoseconds())/1e3)
		case opDelete:
			ivmDel = append(ivmDel, float64(s.work.Nanoseconds())/1e3)
			overdeleted += s.overdeleted
			rederived += s.rederived
			deletes++
		}
		writes++
		firings += s.firings
		if s.compacted {
			compacting = append(compacting, ms(s.lat))
		} else {
			plainWrites++
			plain = append(plain, ms(s.lat))
			wal = append(wal, float64((s.lat-s.work).Nanoseconds())/1e3)
			walBytes += s.walBytes
		}
	}
	if len(ivmIns) == 0 || len(ivmDel) == 0 || len(compacting) == 0 || len(traced) == 0 || len(untraced) == 0 {
		return fmt.Errorf("the traced run saw too few operations of some kind")
	}
	var reopen []float64
	for i := 0; i < 3; i++ {
		d, err := m.sv.reopen(ctx, m.cfg.tr)
		if err == nil {
			err = checked(m.cfg.tr, -1, func() error { return m.sv.checkModel(m.g) })
		}
		if !t.record(err) {
			return fmt.Errorf("reopen: %w", err)
		}
		reopen = append(reopen, ms(d))
	}
	r.set("seminaive.ivm_insert_us", median(ivmIns), "us")
	r.set("seminaive.ivm_delete_us", median(ivmDel), "us")
	r.set("seminaive.ivm_firings_per_write", float64(firings)/float64(writes), "count")
	r.set("seminaive.ivm_overdeleted", float64(overdeleted)/float64(deletes), "tuples/delete")
	r.set("seminaive.ivm_rederived", float64(rederived)/float64(deletes), "tuples/delete")
	r.set("seminaive.ivm_useful_ratio", ratioOr0(int64(overdeleted-rederived), int64(overdeleted)), "ratio")
	r.set("store.wal_us", median(wal), "us")
	r.set("store.wal_bytes_per_write", float64(walBytes)/float64(plainWrites), "bytes")
	r.set("store.compactions", float64(len(compacting)), "count")
	r.set("store.compact_ms", median(compacting)-median(plain), "ms")
	r.set("store.reopen_ms", median(reopen), "ms")
	r.set("parlog.snapshot_us", median(snapUs), "us")
	r.set("parlog.query_us", median(queryUs), "us")
	r.set("parlog.cache_hit_ratio", hitRatio, "ratio")
	r.set("trace.read_overhead_ratio", median(traced)/median(untraced), "ratio")
	return nil
}
