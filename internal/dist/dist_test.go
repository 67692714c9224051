package dist

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"parlog/internal/analysis"
	"parlog/internal/hashpart"
	"parlog/internal/obs"
	"parlog/internal/parallel"
	"parlog/internal/parser"
	"parlog/internal/randprog"
	"parlog/internal/relation"
	"parlog/internal/rewrite"
	"parlog/internal/seminaive"
	"parlog/internal/workload"
)

const ancestorRules = `
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
`

func randomParFacts(nodes, edges int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	seen := map[[2]int]bool{}
	for len(seen) < edges {
		e := [2]int{rng.Intn(nodes), rng.Intn(nodes)}
		if seen[e] {
			continue
		}
		seen[e] = true
		fmt.Fprintf(&b, "par(v%d, v%d).\n", e[0], e[1])
	}
	return b.String()
}

func buildAncestorQ(t *testing.T, src string, n int, vr, ve []string) (*parallel.Program, relation.Store, relation.Store) {
	t.Helper()
	prog := parser.MustParse(src)
	seq, _, err := seminaive.Eval(prog, relation.Store{}, seminaive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := analysis.ExtractSirup(prog)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parallel.BuildQ(s, rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(n),
		VR:    vr, VE: ve,
		H: hashpart.ModHash{N: n},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, relation.Store{}, seq
}

// TestDistributedAncestor runs Example 3's scheme over real TCP sockets and
// compares with sequential evaluation.
func TestDistributedAncestor(t *testing.T) {
	src := ancestorRules + randomParFacts(14, 30, 1)
	p, edb, seq := buildAncestorQ(t, src, 4, []string{"Z"}, []string{"X"})
	res, err := Run(p, edb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatalf("distributed result differs:\nseq %v\ndist %v", seq["anc"], res.Output["anc"])
	}
	if len(res.Stats) != 4 {
		t.Errorf("stats for %d workers, want 4", len(res.Stats))
	}
}

// TestDistributedMatchesInProcess: the TCP transport and the goroutine
// transport drive the same Node, so results and firing totals must agree.
func TestDistributedMatchesInProcess(t *testing.T) {
	src := ancestorRules + randomParFacts(12, 26, 2)
	p, edb, _ := buildAncestorQ(t, src, 3, []string{"Z"}, []string{"X"})
	inproc, err := parallel.Run(p, edb, parallel.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := Run(p, edb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !inproc.Output["anc"].Equal(dist.Output["anc"]) {
		t.Fatal("transports disagree on the least model")
	}
	var inprocFirings, distFirings, inprocSent, distSent int64
	for _, ps := range inproc.Stats.Procs {
		inprocFirings += ps.Firings
		inprocSent += ps.TuplesSent
	}
	for _, ps := range dist.Stats {
		distFirings += ps.Firings
		distSent += ps.TuplesSent
	}
	if inprocFirings != distFirings {
		t.Errorf("firings differ: in-process %d, TCP %d", inprocFirings, distFirings)
	}
	if inprocSent != distSent {
		t.Errorf("tuple traffic differs: in-process %d, TCP %d", inprocSent, distSent)
	}
}

// TestOutputShipsGeneratedRows runs Example 2's broadcast scheme, where
// every derived tuple reaches every worker: each worker must still ship
// only the tuples its buckets generated, not the whole relation, and the
// pooled model must be the least model.
func TestOutputShipsGeneratedRows(t *testing.T) {
	src := ancestorRules + randomParFacts(14, 30, 9)
	p, edb, seq := buildAncestorQ(t, src, 2, []string{"X", "Z"}, []string{"X", "Y"})
	res, err := Run(p, edb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatal("pooled result differs from the least model")
	}
	var generated int64
	for _, ps := range res.Stats {
		generated += ps.Generated
	}
	if res.OutputRows != generated {
		t.Errorf("workers shipped %d rows, their buckets generated %d", res.OutputRows, generated)
	}
}

// TestDistributedCommFree: Theorem 3's scheme sends nothing even over TCP.
func TestDistributedCommFree(t *testing.T) {
	src := ancestorRules + randomParFacts(10, 20, 3)
	p, edb, seq := buildAncestorQ(t, src, 3, []string{"Y"}, []string{"Y"})
	res, err := Run(p, edb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatal("result differs")
	}
	var sent int64
	for _, ps := range res.Stats {
		sent += ps.TuplesSent
	}
	if sent != 0 {
		t.Errorf("communication-free scheme sent %d tuples over TCP", sent)
	}
}

// TestDistributedGeneralScheme runs the Section 7 scheme for the non-linear
// ancestor over TCP.
func TestDistributedGeneralScheme(t *testing.T) {
	src := `
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), anc(Z, Y).
` + randomParFacts(10, 20, 4)
	prog := parser.MustParse(src)
	seq, _, err := seminaive.Eval(prog, relation.Store{}, seminaive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := hashpart.ModHash{N: 3}
	p, err := parallel.BuildGeneral(prog, rewrite.GeneralSpec{
		Procs: hashpart.RangeProcs(3),
		Rules: []rewrite.RuleSpec{
			{Seq: []string{"Y"}, H: h},
			{Seq: []string{"Z"}, H: h},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, relation.Store{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["anc"].Equal(res.Output["anc"]) {
		t.Fatal("distributed general scheme differs from sequential")
	}
}

// TestDistributedRandomPrograms: differential testing over TCP.
func TestDistributedRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(0); seed < 6; seed++ {
		g := randprog.Generate(randprog.Config{}, seed)
		want, _, err := seminaive.Eval(g.Prog, g.EDB, seminaive.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rules, _ := g.Prog.FactTuples()
		spec := rewrite.GeneralSpec{Procs: hashpart.RangeProcs(3)}
		h := hashpart.ModHash{N: 3, Seed: uint64(seed)}
		ok := true
		for _, r := range rules {
			vars := r.BodyVars()
			if len(vars) == 0 {
				ok = false
				break
			}
			spec.Rules = append(spec.Rules, rewrite.RuleSpec{Seq: vars[:1], H: h})
		}
		if !ok {
			continue
		}
		p, err := parallel.BuildGeneral(g.Prog, spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := Run(p, g.EDB, Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, pred := range g.Prog.IDBPreds() {
			a, b := want[pred], res.Output[pred]
			if (a == nil) != (b == nil) || (a != nil && !a.Equal(b)) {
				t.Fatalf("seed %d: %s differs over TCP\nprogram:\n%s", seed, pred, g.Prog)
			}
		}
	}
}

// TestDistributedSameGen runs a bigger workload end to end over sockets.
func TestDistributedSameGen(t *testing.T) {
	up, flat, down := workload.SameGenInput(2, 5)
	edb := relation.Store{"up": up, "flat": flat, "down": down}
	prog := workload.SameGenProgram()
	seq, _, err := seminaive.Eval(prog, edb, seminaive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := hashpart.ModHash{N: 4}
	p, err := parallel.BuildGeneral(prog, rewrite.GeneralSpec{
		Procs: hashpart.RangeProcs(4),
		Rules: []rewrite.RuleSpec{
			{Seq: []string{"X"}, H: h},
			{Seq: []string{"U"}, H: h},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, edb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !seq["sg"].Equal(res.Output["sg"]) {
		t.Fatal("distributed same-generation differs")
	}
}

func TestCoordinatorTimeout(t *testing.T) {
	// A coordinator waiting for workers that never join must time out.
	coord, err := NewCoordinator(Config{Workers: 2, Timeout: 150 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Wait()
	if err == nil {
		t.Error("coordinator did not time out")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("timeout error is not ErrTimeout: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewCoordinator(Config{Workers: 0}, nil); err == nil {
		t.Error("zero workers accepted")
	}
}

func TestWorkerBadCoordinator(t *testing.T) {
	prog := parser.MustParse(ancestorRules)
	s, err := analysis.ExtractSirup(prog)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parallel.BuildQ(s, rewrite.SirupSpec{
		Procs: hashpart.RangeProcs(1),
		VR:    []string{"Z"}, VE: []string{"X"},
		H: hashpart.ModHash{N: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	global, err := parallel.PrepareEDB(p, relation.Store{})
	if err != nil {
		t.Fatal(err)
	}
	node := parallel.NewNode(p, 0, global)
	cfg := WorkerConfig{MaxRetries: 2, RetryBase: time.Millisecond}
	if err := RunWorker("127.0.0.1:1", node, cfg); err == nil {
		t.Error("dialing a dead coordinator succeeded")
	}
}

func TestCoordinatorRejectsBadJoin(t *testing.T) {
	coord, err := NewCoordinator(Config{Workers: 1, Timeout: 2 * time.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := coord.Wait()
		done <- err
	}()
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := gob.NewEncoder(conn).Encode(wireMsg{Kind: kindJoin, Index: 99}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Error("coordinator accepted an out-of-range worker index")
	}
}

// TestCoordinatorRejectsBadStepDone drives the barrier with hand-rolled
// worker connections. Worker 1 answers step 0's message with a stepDone
// for step 5, followed in the same burst by a data batch and the right
// stepDone. The coordinator must break worker 1's connection, naming the
// worker and both steps, apply nothing that followed, recover bucket 1
// onto worker 0 and finish the run.
func TestCoordinatorRejectsBadStepDone(t *testing.T) {
	rec := obs.NewRecorder()
	coord, err := NewCoordinator(Config{Workers: 2, Timeout: 10 * time.Second, Sink: rec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		res *Result
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := coord.Wait()
		done <- result{res, err}
	}()
	// endpoint is one hand-rolled worker's end of its connection.
	type endpoint struct {
		buf *bufio.Writer
		enc *gob.Encoder
		dec *gob.Decoder
	}
	// send writes ms to the connection in one write, so the coordinator
	// cannot close it between them.
	send := func(e endpoint, ms ...wireMsg) error {
		for _, m := range ms {
			if err := e.enc.Encode(m); err != nil {
				return err
			}
		}
		return e.buf.Flush()
	}
	join := func(index int) endpoint {
		conn, err := net.Dial("tcp", coord.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		buf := bufio.NewWriter(conn)
		e := endpoint{buf, gob.NewEncoder(buf), gob.NewDecoder(conn)}
		if err := send(e, wireMsg{Kind: kindJoin, Index: index}); err != nil {
			t.Fatal(err)
		}
		return e
	}
	w0, w1 := join(0), join(1)

	// Worker 0 takes every step and ships an empty output at the end.
	var got0 []msgKind
	w0done := make(chan error, 1)
	go func() {
		for {
			var m wireMsg
			if err := w0.dec.Decode(&m); err != nil {
				w0done <- err
				return
			}
			got0 = append(got0, m.Kind)
			var reply wireMsg
			switch m.Kind {
			case kindPing:
				reply = wireMsg{Kind: kindPong}
			case kindStep:
				reply = wireMsg{Kind: kindStepDone, Step: m.Step}
			case kindFinish:
				reply = wireMsg{Kind: kindOutput, Index: 0}
			default:
				continue
			}
			if err := send(w0, reply); err != nil {
				w0done <- err
				return
			}
			if m.Kind == kindFinish {
				w0done <- nil
				return
			}
		}
	}()
	// Worker 1 misreports its step.
	for {
		var m wireMsg
		if err := w1.dec.Decode(&m); err != nil {
			t.Fatal(err)
		}
		if m.Kind == kindStep {
			break
		}
	}
	if err := send(w1,
		wireMsg{Kind: kindStepDone, Step: 5},
		wireMsg{Kind: kindData, Bucket: 0, From: 1, Pred: "p", Raw: []byte{1, 1, 7}},
		wireMsg{Kind: kindStepDone, Step: 0},
	); err != nil {
		t.Fatal(err)
	}

	var r result
	select {
	case r = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the run wedged after a bad stepDone")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	if err := <-w0done; err != nil {
		t.Fatalf("worker 0: %v", err)
	}
	if !reflect.DeepEqual(r.res.Deaths, []int{1}) {
		t.Fatalf("Deaths = %v, want [1]", r.res.Deaths)
	}
	for _, k := range got0 {
		if k == kindData {
			t.Error("worker 0 was sent the batch worker 1 wrote after its bad stepDone")
		}
	}
	var reason string
	for _, e := range rec.Events() {
		if e.Kind == obs.KindWorkerDead {
			reason = e.Reason
		}
	}
	for _, want := range []string{"worker 1", "step 5", "step 0"} {
		if !strings.Contains(reason, want) {
			t.Errorf("death reason %q does not name %q", reason, want)
		}
	}
}

// TestRouterRejectsMessagesFromTheDead: once a worker is declared dead,
// any message it still has in flight breaks its connection and changes
// nothing — not the barrier, not the logs.
func TestRouterRejectsMessagesFromTheDead(t *testing.T) {
	cfg := &Config{}
	cfg.fill()
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	ws := []*wkState{
		{index: 0, conn: c1, out: newQueue(), alive: true, done: -1},
		{index: 1, conn: c2, out: newQueue(), alive: true, done: -1},
	}
	r := newRouter(cfg, ws)
	r.mu.Lock()
	r.declareDead(ws[1], "test")
	r.mu.Unlock()

	for _, m := range []wireMsg{
		{Kind: kindStepDone, Step: 0},
		{Kind: kindData, Bucket: 0, From: 1, Pred: "p", Raw: []byte{1, 1, 7}},
		{Kind: kindPong},
	} {
		err := r.handle(ws[1], m)
		if err == nil || !strings.Contains(err.Error(), "worker 1") || !strings.Contains(err.Error(), "declared dead") {
			t.Errorf("message kind %d from a dead worker: err = %v, want one naming worker 1 as dead", m.Kind, err)
		}
	}
	if ws[1].done != -1 {
		t.Errorf("a dead worker's stepDone moved its step to %d", ws[1].done)
	}
	if n := len(r.buckets[0].log); n != 0 {
		t.Errorf("a dead worker's batch was logged (%d entries)", n)
	}
}
