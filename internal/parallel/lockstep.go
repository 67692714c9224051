package parallel

import (
	"fmt"
	"time"

	"parlog/internal/relation"
)

// RunLockstep executes the compiled program on a single goroutine with a
// deterministic round-robin schedule: workers initialize in dense-index
// order, then take turns consuming their queued messages in FIFO order and
// draining. Because Node.flush hands batches over in sorted (destination,
// pred) order and no two workers ever run concurrently, the event stream
// delivered to cfg.Sink is identical run-to-run — the property the golden
// trace test pins down. The fixpoint itself equals Run's on any schedule
// (Theorem 1), so RunLockstep is also a convenient sequential oracle.
//
// Mode, PollInterval, MaxBatch and the chaos options are ignored: there is
// no concurrency to detect termination under or to perturb. Topology is
// enforced like the concurrent transport.
func RunLockstep(p *Program, edb relation.Store, cfg RunConfig) (*Result, error) {
	n := p.Procs.Len()
	ids := p.Procs.IDs()

	global, err := PrepareEDB(p, edb)
	if err != nil {
		return nil, err
	}

	nodes := make([]*Node, n)
	queues := make([][]message, n)
	forbidden := make([]int64, n)
	for wi := 0; wi < n; wi++ {
		nodes[wi] = NewNode(p, wi, global)
		nodes[wi].SetSink(cfg.Sink)
	}

	if cfg.Sink != nil {
		cfg.Sink.RunStart("lockstep", ids)
	}
	start := time.Now()

	emitFor := func(wi int) EmitFunc {
		return func(dest int, pred string, tuples []relation.Tuple) {
			toProc := ids[dest]
			if !cfg.Topology.Allowed(ids[wi], toProc) {
				forbidden[wi] += int64(len(tuples))
				return
			}
			nodes[wi].RecordSent(dest, len(tuples))
			if cfg.Sink != nil {
				cfg.Sink.MessageSent(ids[wi], toProc, pred, len(tuples))
			}
			queues[dest] = append(queues[dest], message{from: wi, pred: pred, tuples: tuples})
		}
	}

	turn := func(wi int, work func()) {
		if cfg.Sink != nil {
			cfg.Sink.WorkerBusy(ids[wi])
		}
		begin := time.Now()
		work()
		nodes[wi].RecordBusy(time.Since(begin))
		if cfg.Sink != nil {
			cfg.Sink.WorkerIdle(ids[wi])
		}
	}

	for wi := 0; wi < n; wi++ {
		wi := wi
		turn(wi, func() { nodes[wi].Init(emitFor(wi)) })
	}
	for {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return nil, err
			}
		}
		progress := false
		for wi := 0; wi < n; wi++ {
			if len(queues[wi]) == 0 {
				continue
			}
			progress = true
			wi := wi
			turn(wi, func() {
				msgs := queues[wi]
				queues[wi] = nil
				for _, m := range msgs {
					nodes[wi].Accept(m.from, m.pred, m.tuples)
				}
				nodes[wi].Drain(emitFor(wi))
			})
		}
		if !progress {
			break
		}
	}
	wall := time.Since(start)
	if cfg.Sink != nil {
		cfg.Sink.TermProbe("lockstep", -1, true)
		cfg.Sink.RunEnd(wall)
	}

	// Final pooling, identical to Run.
	stats := &Stats{Placements: nodePlacements(p, global, nodes), Wall: wall}
	var totalForbidden int64
	for wi, node := range nodes {
		stats.Procs = append(stats.Procs, node.Stats())
		totalForbidden += forbidden[wi]
	}
	out := Pool(nodes)
	stats.Edges = EdgesOf(stats.Procs, ids)
	stats.ForbiddenSends = totalForbidden
	if totalForbidden > 0 {
		return &Result{Output: out, Stats: stats},
			fmt.Errorf("parallel: topology suppressed %d tuple sends — the given network cannot execute this scheme", totalForbidden)
	}
	return &Result{Output: out, Stats: stats}, nil
}
