package parallel

import (
	"fmt"
	"testing"

	"parlog/internal/ast"
	"parlog/internal/hashpart"
	"parlog/internal/parser"
	"parlog/internal/relation"
	"parlog/internal/rewrite"
)

// buildNode compiles Example 3's scheme and returns node 0 with a chain EDB.
func buildNode(t *testing.T, n int) (*Program, []*Node) {
	t.Helper()
	prog := parser.MustParse(ancestorRules + chainFacts(6))
	s := mustSirup(t, prog)
	p, err := BuildQ(s, rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(n),
		VR:    []string{"Z"}, VE: []string{"X"},
		H: hashpart.ModHash{N: n},
	})
	if err != nil {
		t.Fatal(err)
	}
	global, err := PrepareEDB(p, relation.Store{})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(p, i, global)
	}
	return p, nodes
}

// TestNodeSingleThreadedExecution drives the nodes by hand on one goroutine:
// a deterministic, transport-free execution of the scheme that must compute
// the closure.
func TestNodeSingleThreadedExecution(t *testing.T) {
	const n = 3
	_, nodes := buildNode(t, n)
	if nodes[0].Index() != 0 || nodes[2].Proc() != 2 {
		t.Errorf("Index/Proc wrong: %d %d", nodes[0].Index(), nodes[2].Proc())
	}

	type batch struct {
		dest int
		pred string
		b    relation.Batch
	}
	var queue []batch
	emit := func(dest int, pred string, b relation.Batch) {
		queue = append(queue, batch{dest, pred, b})
	}
	for _, node := range nodes {
		node.Init(emit)
	}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		nodes[b.dest].Accept(-1, b.pred, b.b)
		nodes[b.dest].Drain(emit)
	}

	// Pool and compare with sequential.
	pooled := Pool(nodes)["anc"]
	if want := 6 * 7 / 2; pooled.Len() != want {
		t.Errorf("|anc| = %d, want %d", pooled.Len(), want)
	}
	var firings int64
	for _, node := range nodes {
		firings += node.Stats().Firings
	}
	if firings != int64(6*7/2) {
		t.Errorf("firings = %d, want %d (chain closure, non-redundant)", firings, 6*7/2)
	}
}

func TestNodeAcceptUnknownPredicate(t *testing.T) {
	_, nodes := buildNode(t, 2)
	// A stale/corrupt message for an unknown predicate must be ignored, not
	// panic.
	nodes[0].Accept(-1, "nosuch", batchOf(2, relation.Tuple{1, 2}))
	if nodes[0].Stats().TuplesReceived != 0 {
		t.Error("unknown-predicate tuples were counted")
	}
	// So must a batch of the wrong arity.
	nodes[0].Accept(-1, "anc", batchOf(3, relation.Tuple{1, 2, 3}))
	if nodes[0].Stats().TuplesReceived != 0 {
		t.Error("wrong-arity tuples were counted")
	}
}

func TestNodeRecorders(t *testing.T) {
	_, nodes := buildNode(t, 2)
	nodes[0].RecordSent(1, 7)
	nodes[0].RecordBusy(5)
	st := nodes[0].Stats()
	if st.TuplesSent != 7 || st.Busy != 5 {
		t.Errorf("recorders: sent=%d busy=%v", st.TuplesSent, st.Busy)
	}
	if want := []EdgeStats{{}, {Messages: 1, Tuples: 7}}; len(st.Sent) != 2 || st.Sent[0] != want[0] || st.Sent[1] != want[1] {
		t.Errorf("per-destination sends = %v, want %v", st.Sent, want)
	}
}

// firstValue is a discriminating function for hand-built scenarios: the
// processor of a sequence is its first value's entry in the table.
type firstValue map[ast.Value]int

func (f firstValue) Name() string               { return "hfirst" }
func (f firstValue) Apply(vals []ast.Value) int { return f[vals[0]] }

// handNet drives a set of nodes by hand on one goroutine. Every emitted
// batch is copied into a FIFO queue and logged, so a test can step the
// network and inspect exactly what each node sent.
type handNet struct {
	p      *Program
	global relation.Store
	in     *ast.Interner
	nodes  []*Node
	queue  []handBatch
	sent   []handBatch // every batch ever emitted, in order
	// onEmit, when set, sees each batch as its node hands it over, before
	// the node runs on.
	onEmit func(hb handBatch)
}

type handBatch struct {
	from, dest int
	pred       string
	batch      relation.Batch
}

// batchOf lays rows of the given arity out as one flat batch.
func batchOf(arity int, rows ...relation.Tuple) relation.Batch {
	b := relation.Batch{Arity: arity}
	for _, t := range rows {
		b.Append(t)
	}
	return b
}

// newHandNet compiles the ancestor sirup over facts with v(r), v(e) and a
// first-value table h over the named constants, and builds one node per
// processor.
func newHandNet(t *testing.T, n int, facts string, vr, ve []string, table map[string]int) *handNet {
	t.Helper()
	prog := parser.MustParse(ancestorRules + facts)
	h := firstValue{}
	for name, proc := range table {
		h[prog.Interner.Intern(name)] = proc
	}
	p, err := BuildQ(mustSirup(t, prog), rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(n), VR: vr, VE: ve, H: h,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := handNetOf(t, p)
	net.in = prog.Interner
	return net
}

// handNetOf builds one node per processor of p, whose base facts are in
// the program text.
func handNetOf(t *testing.T, p *Program) *handNet {
	t.Helper()
	global, err := PrepareEDB(p, relation.Store{})
	if err != nil {
		t.Fatal(err)
	}
	net := &handNet{p: p, global: global}
	for i := 0; i < p.Procs.Len(); i++ {
		net.nodes = append(net.nodes, NewNode(p, i, global))
	}
	return net
}

// tuple interns a tuple of constant names.
func (net *handNet) tuple(names ...string) relation.Tuple {
	out := make(relation.Tuple, len(names))
	for i, s := range names {
		out[i] = net.in.Intern(s)
	}
	return out
}

func (net *handNet) emit(from int) EmitFunc {
	return func(dest int, pred string, b relation.Batch) {
		hb := handBatch{from: from, dest: dest, pred: pred, batch: b}
		if net.onEmit != nil {
			net.onEmit(hb)
		}
		net.queue = append(net.queue, hb)
		net.sent = append(net.sent, hb)
	}
}

// run delivers queued batches in FIFO order, one Accept and Drain each,
// until the network is quiet.
func (net *handNet) run() {
	for len(net.queue) > 0 {
		b := net.queue[0]
		net.queue = net.queue[1:]
		net.nodes[b.dest].Accept(b.from, b.pred, b.batch)
		net.nodes[b.dest].Drain(net.emit(b.dest))
	}
}

// sentTo counts how many times from sent t to dest.
func (net *handNet) sentTo(from, dest int, t relation.Tuple) int {
	c := 0
	for _, b := range net.sent {
		if b.from != from || b.dest != dest {
			continue
		}
		for _, u := range b.batch.Tuples() {
			if u.Equal(t) {
				c++
			}
		}
	}
	return c
}

// kept counts the rows of node wi's @in relation for pred equal to t.
func kept(n *Node, pred string, t relation.Tuple) int {
	c := 0
	for _, u := range n.Snapshot()[pred] {
		if u.Equal(t) {
			c++
		}
	}
	return c
}

type counters struct{ firings, generated, dupFirings, received, dupReceived int64 }

func countersOf(n *Node) counters {
	s := n.Stats()
	return counters{s.Firings, s.Generated, s.DupFirings, s.TuplesReceived, s.DupReceived}
}

// TestNodeReceiveThenDerive pins the accounting of a tuple a node received
// before it derived it: the derivation is still a first generation here
// (Generated, not DupFirings), and the tuple is still sent on to every
// remote destination of its broadcast.
func TestNodeReceiveThenDerive(t *testing.T) {
	// Example 2 style: v(r) = ⟨X,Z⟩ is not inside anc(Z,Y), so anc
	// broadcasts; h(X,…) = table[X] places both rules by X.
	net := newHandNet(t, 3, "par(a, b). par(b, c).\n",
		[]string{"X", "Z"}, []string{"X", "Y"}, map[string]int{"a": 0, "b": 1, "c": 2})
	ab := net.tuple("a", "b")
	n0 := net.nodes[0]
	n0.Accept(1, "anc", batchOf(2, ab))
	if got, want := countersOf(n0), (counters{received: 1}); got != want {
		t.Fatalf("after Accept: %+v, want %+v", got, want)
	}
	n0.Init(net.emit(0))
	// Node 0 fires the exit rule once (anc(a,b)); the rec rule needs an
	// anc(b,_) it does not have yet.
	if got, want := countersOf(n0), (counters{firings: 1, generated: 1, received: 1}); got != want {
		t.Errorf("after Init: %+v, want %+v", got, want)
	}
	for _, dest := range []int{1, 2} {
		if c := net.sentTo(0, dest, ab); c != 1 {
			t.Errorf("anc(a,b) sent %d times to node %d, want 1", c, dest)
		}
	}
	if c := kept(n0, "anc", ab); c != 1 {
		t.Errorf("anc(a,b) kept %d times at node 0, want 1", c)
	}
}

// TestNodeBroadcastKeptOnce pins a broadcast derivation: kept locally once,
// sent once per peer, and a later Accept of the kept tuple counts as a
// duplicate receive.
func TestNodeBroadcastKeptOnce(t *testing.T) {
	net := newHandNet(t, 3, "par(a, b). par(b, c).\n",
		[]string{"X", "Z"}, []string{"X", "Y"}, map[string]int{"a": 0, "b": 1, "c": 2})
	bc := net.tuple("b", "c")
	n1 := net.nodes[1]
	n1.Init(net.emit(1))
	if got, want := countersOf(n1), (counters{firings: 1, generated: 1}); got != want {
		t.Errorf("after Init: %+v, want %+v", got, want)
	}
	if c := kept(n1, "anc", bc); c != 1 {
		t.Errorf("anc(b,c) kept %d times at node 1, want 1", c)
	}
	if len(net.sent) != 2 {
		t.Errorf("node 1 emitted %d batches, want one per peer", len(net.sent))
	}
	for _, dest := range []int{0, 2} {
		if c := net.sentTo(1, dest, bc); c != 1 {
			t.Errorf("anc(b,c) sent %d times to node %d, want 1", c, dest)
		}
	}
	n1.Accept(0, "anc", batchOf(2, bc))
	if got, want := countersOf(n1), (counters{firings: 1, generated: 1, received: 1, dupReceived: 1}); got != want {
		t.Errorf("after duplicate Accept: %+v, want %+v", got, want)
	}
	if c := kept(n1, "anc", bc); c != 1 {
		t.Errorf("anc(b,c) kept %d times after duplicate Accept, want 1", c)
	}
}

// TestNodeDeriveTwice pins local rederivations: the second derivation of a
// tuple at the same node is a DupFirings and is not sent again, both when
// the node keeps the tuple (broadcast) and when it only forwards it
// (point-to-point to a peer).
func TestNodeDeriveTwice(t *testing.T) {
	t.Run("kept", func(t *testing.T) {
		// anc(a,c) fires at node 0 by the exit rule and again by
		// par(a,b), anc(b,c) once node 1's anc(b,c) arrives.
		net := newHandNet(t, 2, "par(a, b). par(b, c). par(a, c).\n",
			[]string{"X", "Z"}, []string{"X", "Y"}, map[string]int{"a": 0, "b": 1, "c": 1})
		for i, n := range net.nodes {
			n.Init(net.emit(i))
		}
		net.run()
		ac := net.tuple("a", "c")
		if got, want := countersOf(net.nodes[0]), (counters{firings: 3, generated: 2, dupFirings: 1, received: 1}); got != want {
			t.Errorf("node 0: %+v, want %+v", got, want)
		}
		if c := net.sentTo(0, 1, ac); c != 1 {
			t.Errorf("anc(a,c) sent %d times, want 1", c)
		}
		if c := kept(net.nodes[0], "anc", ac); c != 1 {
			t.Errorf("anc(a,c) kept %d times, want 1", c)
		}
	})
	t.Run("forwarded", func(t *testing.T) {
		// Example 3: v(r) = ⟨Z⟩, v(e) = ⟨X⟩. anc(a,c) fires twice at node
		// 1 (through Z=b and Z=d) and belongs at h(a) = 0.
		net := newHandNet(t, 2, "par(a, b). par(a, d). par(b, c). par(d, c).\n",
			[]string{"Z"}, []string{"X"}, map[string]int{"a": 0, "b": 1, "c": 1, "d": 1})
		for i, n := range net.nodes {
			n.Init(net.emit(i))
		}
		net.run()
		ac := net.tuple("a", "c")
		if got, want := countersOf(net.nodes[1]), (counters{firings: 4, generated: 3, dupFirings: 1}); got != want {
			t.Errorf("node 1: %+v, want %+v", got, want)
		}
		if c := net.sentTo(1, 0, ac); c != 1 {
			t.Errorf("anc(a,c) sent %d times, want 1", c)
		}
		if c := kept(net.nodes[1], "anc", ac); c != 0 {
			t.Errorf("anc(a,c) kept %d times at node 1, want 0 (it belongs at node 0)", c)
		}
		if c := kept(net.nodes[0], "anc", ac); c != 1 {
			t.Errorf("anc(a,c) kept %d times at node 0, want 1", c)
		}
	})
}

// TestNodeSnapshotReplay restarts every node of a finished run from its
// Snapshot: a fresh node that runs Init, Accepts the snapshot and Drains
// converges to the same @in sets.
func TestNodeSnapshotReplay(t *testing.T) {
	facts := randomParFacts(12, 30, 4)
	for _, sc := range []struct {
		name   string
		vr, ve []string
	}{
		{"broadcast", []string{"X", "Z"}, []string{"X", "Y"}},
		{"point-to-point", []string{"Z"}, []string{"X"}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			table := map[string]int{}
			for i := 0; i < 12; i++ {
				table[fmt.Sprintf("v%d", i)] = i % 3
			}
			net := newHandNet(t, 3, facts, sc.vr, sc.ve, table)
			for i, n := range net.nodes {
				n.Init(net.emit(i))
			}
			net.run()
			for i, n := range net.nodes {
				snap := n.Snapshot()
				fresh := NewNode(net.p, i, net.global)
				discard := func(int, string, relation.Batch) {}
				fresh.Init(discard)
				for pred, rows := range snap {
					fresh.Accept(-1, pred, batchOf(net.p.IDB[pred], rows...))
				}
				fresh.Drain(discard)
				got := fresh.Snapshot()
				for _, pred := range []string{"anc"} {
					a := relation.FromTuples(2, toVals(snap[pred]))
					b := relation.FromTuples(2, toVals(got[pred]))
					if !a.Equal(b) {
						t.Errorf("node %d: replayed @in %s has %d tuples, original %d", i, pred, b.Len(), a.Len())
					}
				}
			}
		})
	}
}

func toVals(ts []relation.Tuple) [][]ast.Value {
	out := make([][]ast.Value, len(ts))
	for i, t := range ts {
		out[i] = t
	}
	return out
}

// TestRoutesHome pins which sirup rules BuildQ proves route home, and
// checks that skipping their routing changes no counter: the same run with
// the proof withheld must match processor by processor.
func TestRoutesHome(t *testing.T) {
	src := ancestorRules + randomParFacts(12, 30, 8)
	h := hashpart.ModHash{N: 3}
	for _, tc := range []struct {
		name     string
		spec     rewrite.SirupSpec
		rec, ext bool // want home for the recursive and the exit rule
	}{
		{"example1", rewrite.SirupSpec{VR: []string{"Y"}, VE: []string{"Y"}, H: h}, true, true},
		{"example3", rewrite.SirupSpec{VR: []string{"Z"}, VE: []string{"X"}, H: h}, false, true},
		{"separate h'", rewrite.SirupSpec{VR: []string{"Y"}, VE: []string{"Y"}, H: h, HP: hashpart.ModHash{N: 3, Seed: 1}}, true, false},
		{"broadcast", rewrite.SirupSpec{VR: []string{"X", "Z"}, VE: []string{"X", "Y"}, H: h}, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := parser.MustParse(src)
			tc.spec.Procs = hashpart.RangeProcs(3)
			p, err := BuildQ(mustSirup(t, prog), tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, cr := range p.rules[0] {
				if want := map[bool]bool{false: tc.rec, true: tc.ext}[cr.init]; cr.home != want {
					t.Errorf("init=%v rule: home = %v, want %v", cr.init, cr.home, want)
				}
			}
			proven, err := RunLockstep(p, relation.Store{}, RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for wi := range p.rules {
				rules := append([]compiledRule(nil), p.rules[wi]...)
				for i := range rules {
					rules[i].home = false
				}
				p.rules[wi] = rules
			}
			routed, err := RunLockstep(p, relation.Store{}, RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if !proven.Output["anc"].Equal(routed.Output["anc"]) {
				t.Error("outputs differ")
			}
			for i, a := range proven.Stats.Procs {
				b := routed.Stats.Procs[i]
				a.Busy, b.Busy = 0, 0
				if fmt.Sprint(a) != fmt.Sprint(b) {
					t.Errorf("proc %d: %+v with the proof, %+v without", i, a, b)
				}
			}
		})
	}
}
