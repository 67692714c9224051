// Command datalog evaluates a Datalog program, sequentially or in parallel,
// and prints the derived relations.
//
// Usage:
//
//	datalog [flags] program.dl [facts.dl ...]
//	cat program.dl | datalog [flags]
//
// Flags:
//
//	-workers N      parallel evaluation on N processors (0 = sequential)
//	-strategy S     auto | hash | nocomm | tradeoff | general
//	-vr V,W         discriminating sequence v(r) for the recursive rule
//	-ve V,W         discriminating sequence v(e) for the exit rule
//	-locality F     locality in [0,1] for -strategy tradeoff
//	-naive          sequential naive iteration instead of semi-naive
//	-pred p,q       print only these predicates (default: all derived)
//	-query 'p(a,X)' evaluate goal-directed: demand (magic-sets) rewrite
//	                the program to the goal, then stream its answers
//	-no-demand      answer -query from a full materialization instead
//	-explain        print the query plan (join orders, pushdowns, demand
//	                rewrite) to stderr
//	-profile        collect a runtime profile and print the EXPLAIN ANALYZE
//	                section (per-rule firings, per-atom probe/match counts)
//	                to stderr
//	-log-json       emit diagnostic log lines as JSON objects
//	-csv pred=path  load a base relation from a CSV file (repeatable)
//	-i              interactive queries after evaluation
//	-stats          print evaluation statistics to stderr
//	-metrics        print per-processor iteration/traffic/busy metrics
//	-trace FILE     write the run's full event stream as JSON
//	-trace-chrome F write the run as Chrome trace_event JSON (load it in
//	                chrome://tracing or ui.perfetto.dev)
//	-dist           run the parallel evaluation on the distributed TCP
//	                engine (in-process workers over real sockets)
//	-metrics-addr A serve live Prometheus metrics, a JSON snapshot at
//	                /debug/parlog, and (with -pprof) net/http/pprof on A
//	-pprof          mount net/http/pprof on the -metrics-addr server
//	-metrics-hold D keep the metrics endpoint up D after the run ends
//	-audit          run the Section 5 network-conformance audit (hash
//	                strategy with -vr; prints the report to stderr)
//	-show-rewrite   print each processor's rewritten program (the paper's
//	                Q_i / R_i / T_i) instead of evaluating
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"parlog"
	"parlog/internal/logx"
)

// log carries the CLI's diagnostics; main swaps in the JSON handler when
// -log-json is set. Report-style output (relations, stats, explain text,
// the audit) stays on plain stderr/stdout — those are results, not logs.
var log = logx.New(os.Stderr, false)

func main() {
	var (
		workers     = flag.Int("workers", 0, "parallel evaluation on N processors (0 = sequential)")
		strategy    = flag.String("strategy", "auto", "auto | hash | nocomm | tradeoff | general")
		vr          = flag.String("vr", "", "comma-separated discriminating sequence v(r)")
		ve          = flag.String("ve", "", "comma-separated discriminating sequence v(e)")
		locality    = flag.Float64("locality", 0, "locality in [0,1] for -strategy tradeoff")
		naive       = flag.Bool("naive", false, "use naive iteration (sequential only)")
		preds       = flag.String("pred", "", "comma-separated predicates to print (default: all derived)")
		query       = flag.String("query", "", "evaluate goal-directed and print the answers of this atom, e.g. 'anc(a, X)'")
		noDemand    = flag.Bool("no-demand", false, "disable the magic-sets rewrite for -query")
		explain     = flag.Bool("explain", false, "print the query plan to stderr")
		profileF    = flag.Bool("profile", false, "collect a runtime profile and print the analyze section to stderr")
		logJSON     = flag.Bool("log-json", false, "emit diagnostic log lines as JSON objects")
		stats       = flag.Bool("stats", false, "print evaluation statistics to stderr")
		interact    = flag.Bool("i", false, "after evaluating, read query patterns from stdin")
		showRW      = flag.Bool("show-rewrite", false, "print each processor's rewritten program (Q_i/R_i/T_i) instead of evaluating")
		metrics     = flag.Bool("metrics", false, "print per-processor iteration/traffic/busy metrics to stderr")
		traceOut    = flag.String("trace", "", "write the run's full event stream as JSON to this file")
		chromeOut   = flag.String("trace-chrome", "", "write the run as Chrome trace_event JSON to this file")
		dist        = flag.Bool("dist", false, "use the distributed TCP engine (requires -workers)")
		metricsAddr = flag.String("metrics-addr", "", "serve live metrics on this address (e.g. 127.0.0.1:9090)")
		pprofF      = flag.Bool("pprof", false, "mount net/http/pprof on the -metrics-addr server")
		metricsHold = flag.Duration("metrics-hold", 0, "keep the metrics endpoint alive this long after the run")
		audit       = flag.Bool("audit", false, "audit the observed communication matrix against the derived network graph")
	)
	var csvs csvFlags
	flag.Var(&csvs, "csv", "load a base relation from CSV: pred=path (repeatable)")
	flag.Parse()
	if *logJSON {
		log = logx.New(os.Stderr, true)
	}

	// Interrupts cancel the evaluation and cut a -metrics-hold short, so
	// ^C tears the endpoint down instead of orphaning it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	src, err := readSources(flag.Args())
	if err != nil {
		fatal(err)
	}
	prog, err := parlog.Parse(src)
	if err != nil {
		fatal(err)
	}
	edb := parlog.Store{}
	for _, cf := range csvs {
		if _, err := prog.LoadCSVFile(edb, cf.pred, cf.path); err != nil {
			fatal(err)
		}
	}

	var show []string
	if *preds != "" {
		show = splitList(*preds)
	} else {
		show = prog.IDB()
	}

	if *showRW {
		opts := parlog.EvalOptions{
			Workers: *workers, Locality: *locality,
			VR: splitList(*vr), VE: splitList(*ve),
			Strategy: strategyOf(*strategy),
		}
		listings, err := parlog.RewriteListings(prog, opts)
		if err != nil {
			fatal(err)
		}
		ids := make([]int, 0, len(listings))
		for id := range listings {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Printf("%% ---- processor %d ----\n%s\n", id, listings[id])
		}
		return
	}

	var rec *parlog.TraceRecorder
	if *traceOut != "" || *chromeOut != "" {
		rec = parlog.NewTraceRecorder()
	}

	telemetry := parlog.EvalOptions{
		MetricsAddr: *metricsAddr,
		Pprof:       *pprofF,
		MetricsHold: *metricsHold,
	}
	if *metricsAddr != "" {
		telemetry.TelemetryReady = func(addr string) {
			log.Info("serving metrics", "addr", "http://"+addr+"/metrics")
		}
	}

	if *workers <= 0 {
		o := telemetry
		o.Naive, o.Trace, o.Metrics = *naive, traceSink(rec), *metrics
		o.Explain, o.NoDemand = *explain, *noDemand
		o.Profile = *profileF
		if *query != "" {
			runQuery(ctx, prog, edb, *query, o, *explain || *profileF, *stats)
			writeTrace(rec, *traceOut)
			writeChrome(rec, *chromeOut)
			return
		}
		seqRes, err := parlog.Eval(ctx, prog, edb, o)
		if err != nil {
			fatal(err)
		}
		store, st := seqRes.Output, seqRes.SeqStats
		printResult(prog, store, show)
		if *explain || *profileF {
			fmt.Fprint(os.Stderr, seqRes.Explain())
		}
		if *stats {
			fmt.Fprintf(os.Stderr, "iterations=%d firings=%d new=%d\n", st.Iterations, st.Firings, st.New)
		}
		writeTrace(rec, *traceOut)
		writeChrome(rec, *chromeOut)
		printMetrics(seqRes.Metrics)
		if *interact {
			repl(ctx, prog, edb, os.Stdin, os.Stdout)
		}
		return
	}

	opts := telemetry
	opts.Workers = *workers
	opts.Locality = *locality
	opts.VR = splitList(*vr)
	opts.VE = splitList(*ve)
	opts.Strategy = strategyOf(*strategy)
	opts.Trace = traceSink(rec)
	opts.Metrics = *metrics
	opts.Explain = *explain
	opts.Profile = *profileF
	opts.NoDemand = *noDemand
	opts.Engine = parlog.EngineParallel
	if *dist {
		opts.Engine = parlog.EngineDistributed
	}
	if *query != "" {
		runQuery(ctx, prog, edb, *query, opts, *explain || *profileF, *stats)
		writeTrace(rec, *traceOut)
		writeChrome(rec, *chromeOut)
		return
	}
	if *audit {
		// The auditor needs the bit-level discriminating function the
		// derivation can reason about: one parity bit per v(r) variable,
		// with the processor set sized to the resulting id space.
		if opts.Strategy != parlog.StrategyHashPartition || len(opts.VR) == 0 {
			fatal(fmt.Errorf("-audit requires -strategy hash and -vr"))
		}
		opts.AuditNetwork = true
		opts.HashBits = parlog.BitVectorHash(len(opts.VR))
		for i := 0; i < 1<<len(opts.VR); i++ {
			opts.Procs = append(opts.Procs, i)
		}
	}
	res, err := parlog.Eval(ctx, prog, edb, opts)
	if err != nil {
		fatal(err)
	}
	printResult(prog, res.Output, show)
	if *explain || *profileF {
		fmt.Fprint(os.Stderr, res.Explain())
	}
	if *stats {
		fmt.Fprint(os.Stderr, res.Stats.String())
	}
	if res.Audit != nil {
		fmt.Fprintln(os.Stderr, res.Audit.String())
	}
	writeTrace(rec, *traceOut)
	writeChrome(rec, *chromeOut)
	printMetrics(res.Metrics)
	if *interact {
		repl(ctx, prog, edb, os.Stdin, os.Stdout)
	}
}

// traceSink avoids stuffing a typed-nil *TraceRecorder into the EventSink
// interface when -trace is off.
func traceSink(rec *parlog.TraceRecorder) parlog.EventSink {
	if rec == nil {
		return nil
	}
	return rec
}

func writeTrace(rec *parlog.TraceRecorder, path string) {
	if rec == nil || path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := rec.WriteJSON(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func writeChrome(rec *parlog.TraceRecorder, path string) {
	if rec == nil || path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := parlog.WriteChromeTrace(f, rec.Events()); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func printMetrics(m *parlog.Metrics) {
	if m == nil {
		return
	}
	for _, p := range m.Procs {
		fmt.Fprintf(os.Stderr, "proc %d: iterations=%d firings=%d (dup %d) sent=%d recv=%d (dup %d) busy=%s idle=%s\n",
			p.Proc, len(p.Iterations), p.Firings, p.DupFirings,
			p.TuplesSent, p.TuplesReceived, p.DupReceived,
			time.Duration(p.BusyNs), time.Duration(p.IdleNs))
	}
	for _, e := range m.Edges {
		fmt.Fprintf(os.Stderr, "edge %d->%d: messages=%d tuples=%d\n", e.From, e.To, e.Messages, e.Tuples)
	}
}

// runQuery evaluates one goal atom through the goal-directed front door and
// streams its answers to stdout.
func runQuery(ctx context.Context, prog *parlog.Program, edb parlog.Store, goal string, opts parlog.EvalOptions, explain, stats bool) {
	qr, err := parlog.Query(ctx, prog, edb, goal, opts)
	if err != nil {
		fatal(err)
	}
	n := 0
	for {
		t, ok := qr.Next()
		if !ok {
			break
		}
		parts := make([]string, len(t))
		for i, v := range t {
			parts[i] = prog.ConstName(v)
		}
		fmt.Printf("%s(%s).\n", qr.Pred, strings.Join(parts, ", "))
		n++
	}
	if explain {
		fmt.Fprint(os.Stderr, qr.Explain())
	}
	if stats {
		fmt.Fprintf(os.Stderr, "%% %d answers\n", n)
		if st := qr.SeqStats; st != nil {
			fmt.Fprintf(os.Stderr, "iterations=%d firings=%d new=%d\n", st.Iterations, st.Firings, st.New)
		} else if qr.Stats != nil {
			fmt.Fprint(os.Stderr, qr.Stats.String())
		}
	}
	printMetrics(qr.Metrics)
}

// strategyOf maps the -strategy flag to the API value.
func strategyOf(s string) parlog.Strategy {
	switch s {
	case "auto":
		return parlog.StrategyAuto
	case "hash":
		return parlog.StrategyHashPartition
	case "nocomm":
		return parlog.StrategyNoComm
	case "tradeoff":
		return parlog.StrategyTradeoff
	case "general":
		return parlog.StrategyGeneral
	default:
		fatal(fmt.Errorf("unknown strategy %q", s))
		return 0
	}
}

// csvFlags collects repeated -csv pred=path flags.
type csvFlags []struct{ pred, path string }

// String implements flag.Value.
func (c *csvFlags) String() string { return fmt.Sprintf("%d csv mappings", len(*c)) }

// Set implements flag.Value.
func (c *csvFlags) Set(v string) error {
	eq := strings.IndexByte(v, '=')
	if eq <= 0 || eq == len(v)-1 {
		return fmt.Errorf("want pred=path, got %q", v)
	}
	*c = append(*c, struct{ pred, path string }{v[:eq], v[eq+1:]})
	return nil
}

// repl reads one query pattern per line and prints the matches. When the
// program qualifies for incremental maintenance it is materialized once
// into a View and every pattern becomes a snapshot probe; otherwise each
// line runs through the goal-directed Query front door.
func repl(ctx context.Context, prog *parlog.Program, edb parlog.Store, in io.Reader, out io.Writer) {
	fmt.Fprintln(out, "% enter query patterns like anc(a, X); empty line or EOF quits")
	var snap *parlog.Snapshot
	if view, err := parlog.Open(ctx, prog, edb, parlog.EvalOptions{}); err == nil {
		defer view.Close()
		if s, err := view.Snapshot(); err == nil {
			snap = s
		}
	}
	sc := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "?- ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return
		}
		q := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(sc.Text()), "."))
		if q == "" {
			return
		}
		var qr *parlog.QueryResult
		var err error
		if snap != nil {
			qr, err = snap.Query(ctx, q)
		} else {
			qr, err = parlog.Query(ctx, prog, edb, q, parlog.EvalOptions{})
		}
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			continue
		}
		tuples := qr.All()
		sortTuples(tuples)
		for _, t := range tuples {
			parts := make([]string, len(t))
			for i, v := range t {
				parts[i] = prog.ConstName(v)
			}
			fmt.Fprintf(out, "%s(%s).\n", qr.Pred, strings.Join(parts, ", "))
		}
		fmt.Fprintf(out, "%% %d answers\n", len(tuples))
	}
}

// sortTuples orders answers lexicographically for stable REPL output.
func sortTuples(ts []parlog.Tuple) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}

// printResult prints the listed predicates in full.
func printResult(prog *parlog.Program, store parlog.Store, show []string) {
	for _, p := range show {
		fmt.Print(prog.Format(store, p))
	}
}

func readSources(paths []string) (string, error) {
	if len(paths) == 0 {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	var b strings.Builder
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	return b.String(), nil
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
