// Command dldist runs the parallel Datalog evaluation across OS processes
// over TCP — the paper's message-passing multiprocessor with one process per
// processor. Start one coordinator and N workers (any order; the coordinator
// waits, and workers retry the connect with backoff):
//
//	dldist -role coordinator -workers 3 -listen 127.0.0.1:7070 prog.dl
//	dldist -role worker -index 0 -coordinator 127.0.0.1:7070 -workers 3 -vr Z -ve X prog.dl
//	dldist -role worker -index 1 -coordinator 127.0.0.1:7070 -workers 3 -vr Z -ve X prog.dl
//	dldist -role worker -index 2 -coordinator 127.0.0.1:7070 -workers 3 -vr Z -ve X prog.dl
//
// (Flags must precede the program file; flag parsing stops at the first
// positional argument.)
//
// All traffic flows through the coordinator (star topology); workers open no
// listeners of their own. If a worker process dies mid-run, the coordinator
// reassigns its hash bucket to a survivor and replays the bucket's logged
// messages, so the run still completes with the exact least model — kill one
// of the workers above and watch the run finish anyway.
//
// Every process must be given the same program file and the same scheme
// flags: the processes independently compile identical schemes (the hash
// functions are deterministic in -seed), and parsing the same text yields
// identical constant interners, so tuple encodings agree on the wire.
// Data batches, checkpoint snapshots and the final outputs travel in
// internal/wire's compact varint encoding (checksummed with FNV over the
// encoded bytes); only the low-rate control envelope is gob. The
// -max-memory-bytes budget is therefore measured over those encoded
// payload sizes.
//
// Either role serves live telemetry with -metrics-addr ADDR: Prometheus
// text at /metrics, a JSON aggregate snapshot at /debug/parlog, and (with
// -pprof) net/http/pprof. -metrics-hold keeps the endpoint up after the
// run so a scraper can collect the final state; SIGINT/SIGTERM shut
// everything down gracefully.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"parlog/internal/analysis"
	"parlog/internal/ast"
	"parlog/internal/dist"
	"parlog/internal/hashpart"
	"parlog/internal/logx"
	"parlog/internal/metrics"
	"parlog/internal/obs"
	"parlog/internal/parallel"
	"parlog/internal/parser"
	"parlog/internal/relation"
	"parlog/internal/rewrite"
)

// log carries the process diagnostics; main swaps in the JSON handler when
// -log-json is set. Derived relations stay on stdout and the profile text
// on raw stderr — results, not log lines.
var log = logx.New(os.Stderr, false)

func main() {
	var (
		role     = flag.String("role", "", "coordinator | worker")
		workers  = flag.Int("workers", 0, "number of processors")
		listen   = flag.String("listen", "127.0.0.1:0", "coordinator: control listen address")
		coord    = flag.String("coordinator", "", "worker: coordinator address")
		index    = flag.Int("index", -1, "worker: processor index (0-based)")
		strategy = flag.String("strategy", "hash", "hash | nocomm | general")
		vr       = flag.String("vr", "", "discriminating sequence v(r), comma-separated")
		ve       = flag.String("ve", "", "discriminating sequence v(e), comma-separated")
		seed     = flag.Uint64("seed", 0, "hash function seed (must match across processes)")
		retries  = flag.Int("retries", 0, "worker: connect attempts before giving up (default 5)")
		hbeat    = flag.Duration("heartbeat", 0, "coordinator: heartbeat miss threshold (default 100ms)")
		deadline = flag.Duration("deadline", 0, "coordinator: silence before a worker is declared dead (default 2s)")

		buckets      = flag.Int("buckets", 0, "hash buckets to compile the scheme for (default -workers; more buckets than workers gives the rebalancer moves to make)")
		rebalance    = flag.Bool("rebalance", false, "coordinator: enable skew-triggered hot-bucket migration")
		rebThreshold = flag.Float64("rebalance-threshold", 0, "coordinator: max/mean bucket-load skew that triggers a migration (default 2.0)")
		rebInterval  = flag.Duration("rebalance-interval", 0, "coordinator: load-sampling period (default 10ms)")
		rebWindow    = flag.Int("rebalance-window", 0, "coordinator: samples in the sliding skew window (default 3)")
		rebCooldown  = flag.Duration("rebalance-cooldown", 0, "coordinator: minimum gap between migration decisions (default 2x interval)")
		rebMax       = flag.Int("rebalance-max", 0, "coordinator: migrations allowed per run (0 = unlimited)")

		ckptEvery = flag.Int("checkpoint-every", 0, "coordinator: checkpoint a bucket at the first barrier after N logged batches (0 disables)")
		maxMemory = flag.Int64("max-memory-bytes", 0, "coordinator: budget over send logs+checkpoints; overruns force checkpoints, then fail fast (0 = unlimited)")

		metricsAddr = flag.String("metrics-addr", "", "serve live Prometheus metrics (plus /debug/parlog JSON) on this address")
		pprofF      = flag.Bool("pprof", false, "mount net/http/pprof on the -metrics-addr server")
		metricsHold = flag.Duration("metrics-hold", 0, "keep the metrics endpoint alive this long after the run ends")
		profileF    = flag.Bool("profile", false, "coordinator: collect per-rule runtime profiles from the workers and print the analyze text to stderr")
		logJSON     = flag.Bool("log-json", false, "emit diagnostic log lines as JSON objects")
	)
	flag.Parse()
	if *logJSON {
		log = logx.New(os.Stderr, true)
	}

	// SIGINT/SIGTERM cancel the run and cut any -metrics-hold short, so
	// both roles shut down gracefully instead of dying mid-protocol.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// Telemetry: the event stream feeds a registry-backed sink for the
	// Prometheus exposition and a counting sink for the /debug/parlog
	// JSON snapshot, mirroring the library's MetricsAddr wiring.
	var sink obs.EventSink
	closeTelemetry := func() {}
	if *metricsAddr != "" {
		reg := metrics.New()
		counting := obs.NewCounting()
		sink = obs.Fanout(obs.NewMetricsSink(reg), counting)
		srv, err := metrics.NewServer(*metricsAddr, reg, metrics.ServerOptions{
			Pprof: *pprofF,
			Debug: func() any { return counting.Snapshot() },
		})
		if err != nil {
			fatal(err)
		}
		log.Info("serving metrics", "addr", "http://"+srv.Addr()+"/metrics")
		closeTelemetry = func() {
			if *metricsHold > 0 {
				hold := time.NewTimer(*metricsHold)
				defer hold.Stop()
				select {
				case <-hold.C:
				case <-ctx.Done():
				}
			}
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Close(shutdownCtx)
		}
	}
	defer closeTelemetry()

	if *workers <= 0 {
		fatal(fmt.Errorf("-workers must be positive"))
	}
	// The scheme is compiled for -buckets processors; -workers OS
	// processes host them (bucket b starts on worker b mod workers).
	// Every process must agree on -buckets or the hash partitions
	// disagree on the wire.
	if *buckets == 0 {
		*buckets = *workers
	}
	if *buckets < *workers {
		fatal(fmt.Errorf("-buckets (%d) must be at least -workers (%d)", *buckets, *workers))
	}
	srcFiles := flag.Args()
	if len(srcFiles) == 0 {
		fatal(fmt.Errorf("a program file is required"))
	}
	var src strings.Builder
	for _, f := range srcFiles {
		data, err := os.ReadFile(f)
		if err != nil {
			fatal(err)
		}
		src.Write(data)
		src.WriteByte('\n')
	}
	prog, err := parser.Parse(src.String())
	if err != nil {
		fatal(err)
	}
	compiled, err := buildProgram(prog, *strategy, splitList(*vr), splitList(*ve), *buckets, *seed)
	if err != nil {
		fatal(err)
	}

	switch *role {
	case "coordinator":
		// dist.Run brackets the run for the single-process engine; the
		// multi-process coordinator drives the protocol directly, so
		// mark the run boundaries here or parlog_runs_total /
		// parlog_run_active never move on a dldist deployment.
		if sink != nil {
			sink.RunStart("dist", compiled.Procs.IDs())
		}
		c, err := dist.NewCoordinator(dist.Config{
			Workers: *workers,
			Buckets: *buckets,
			Pinned:  compiled.PinnedBuckets(),
			Rebalance: dist.RebalanceConfig{
				Enabled:       *rebalance,
				SkewThreshold: *rebThreshold,
				Interval:      *rebInterval,
				Window:        *rebWindow,
				Cooldown:      *rebCooldown,
				MaxMigrations: *rebMax,
			},
			Addr:              *listen,
			HeartbeatInterval: *hbeat,
			WorkerDeadline:    *deadline,
			CheckpointEvery:   *ckptEvery,
			MaxMemoryBytes:    *maxMemory,
			ProcIDs:           compiled.Procs.IDs(),
			Profile:           *profileF,
			Ctx:               ctx,
			Sink:              sink,
		}, compiled.IDB)
		if err != nil {
			fatal(err)
		}
		log.Info("coordinating", "workers", *workers, "addr", c.Addr())
		res, err := c.Wait()
		if err != nil {
			fatal(err)
		}
		if sink != nil {
			sink.RunEnd(res.Wall)
		}
		for _, pred := range prog.IDBPreds() {
			rel := res.Output[pred]
			if rel == nil {
				continue
			}
			for _, t := range rel.SortedRows() {
				parts := make([]string, len(t))
				for i, v := range t {
					parts[i] = prog.Interner.Name(v)
				}
				fmt.Printf("%s(%s).\n", pred, strings.Join(parts, ", "))
			}
		}
		var firings, sent int64
		for _, ps := range res.Stats {
			firings += ps.Firings
			sent += ps.TuplesSent
		}
		log.Info("done", "wall", res.Wall, "firings", firings, "tuples_sent", sent)
		if res.Profile != nil {
			fmt.Fprint(os.Stderr, res.Profile.String())
		}
		if res.Checkpoints > 0 || res.TruncatedBatches > 0 {
			log.Info("durability summary",
				"checkpoints", res.Checkpoints,
				"truncated_batches", res.TruncatedBatches)
		}
		for _, rec := range res.Recoveries {
			log.Info("recovered bucket",
				"bucket", rec.Bucket, "from_worker", rec.FromWorker, "to_worker", rec.ToWorker,
				"replayed", rec.Replayed, "covered_by_checkpoint", rec.Truncated)
		}
		for _, mig := range res.Migrations {
			log.Info("migrated hot bucket",
				"bucket", mig.Bucket, "from_worker", mig.FromWorker, "to_worker", mig.ToWorker,
				"skew", mig.Skew, "replayed", mig.Replayed)
		}
		if res.RebalanceRejected > 0 {
			log.Info("repartitionings rejected", "count", res.RebalanceRejected)
		}
	case "worker":
		if *coord == "" || *index < 0 || *index >= *workers {
			fatal(fmt.Errorf("worker needs -coordinator and a valid -index"))
		}
		global, err := parallel.PrepareEDB(compiled, relation.Store{})
		if err != nil {
			fatal(err)
		}
		newNode := func(bucket int) *parallel.Node {
			n := parallel.NewNode(compiled, bucket, global)
			if sink != nil {
				n.SetSink(sink)
			}
			return n
		}
		wcfg := dist.WorkerConfig{NewNode: newNode, MaxRetries: *retries, Ctx: ctx}
		if err := dist.RunWorker(*coord, newNode(*index), wcfg); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("-role must be coordinator or worker"))
	}
}

// buildProgram compiles the scheme deterministically from flags; every
// process must reach an identical compilation.
func buildProgram(prog *ast.Program, strategy string, vr, ve []string, workers int, seed uint64) (*parallel.Program, error) {
	procs := hashpart.RangeProcs(workers)
	h := hashpart.ModHash{N: workers, Seed: seed}
	switch strategy {
	case "hash":
		s, err := analysis.ExtractSirup(prog)
		if err != nil {
			return nil, err
		}
		if vr == nil {
			vr = []string{s.BodyVars[0]}
		}
		if ve == nil {
			ve = []string{s.ExitVars[0]}
		}
		return parallel.BuildQ(s, rewrite.SirupSpec{Procs: procs, VR: vr, VE: ve, H: h})
	case "nocomm":
		s, err := analysis.ExtractSirup(prog)
		if err != nil {
			return nil, err
		}
		if ve == nil {
			ve = []string{s.ExitVars[0]}
		}
		return parallel.BuildNoComm(s, rewrite.NoCommSpec{Procs: procs, VE: ve, HP: h})
	case "general":
		rules, _ := prog.FactTuples()
		spec := rewrite.GeneralSpec{Procs: procs}
		for _, r := range rules {
			var seq []string
			if recs := analysis.RecursiveAtoms(prog, r); len(recs) > 0 {
				if vars := r.Body[recs[0]].Vars(nil); len(vars) > 0 {
					seq = vars[:1]
				}
			}
			if seq == nil {
				vars := r.BodyVars()
				if len(vars) == 0 {
					return nil, fmt.Errorf("rule without body variables: %s", prog.FormatRule(r))
				}
				seq = vars[:1]
			}
			spec.Rules = append(spec.Rules, rewrite.RuleSpec{Seq: seq, H: h})
		}
		return parallel.BuildGeneral(prog, spec)
	default:
		return nil, fmt.Errorf("unknown strategy %q", strategy)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func fatal(err error) {
	log.Error("fatal", "err", err.Error())
	os.Exit(1)
}
