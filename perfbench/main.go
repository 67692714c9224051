// Command perfbench is parlog's benchmark. It runs one workload for a
// fixed time against the public API, checks every answer against its own
// closure oracle, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer metrics) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Build and run it from the repository root with perfbench/run.sh, which
// passes its arguments through:
//
//	bash perfbench/run.sh --workload tc-shuffle --seed 7 --seconds 30 --trace 0
//
// README.md in this directory says why each workload exists and which
// end-to-end metric each layer metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what a workload run needs from the command line.
type config struct {
	seed    int64
	measure time.Duration // the half's share of --seconds
	tr      *tracer       // nil unless --trace 1
	out     string        // directory for the durable view and the trace file
}

// tally counts operations attempted and failed. A failed operation — an
// error or a wrong answer — is never retried.
type tally struct {
	attempted, failed int
}

func (t *tally) record(err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if t.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: failed operation %d: %v\n", t.attempted, err)
	}
	return false
}

// report collects a run's metrics by name.
type report map[string]metric

func (r report) set(name string, value float64, unit string) {
	r[name] = metric{Value: value, Unit: unit}
}

// add adds value to the metric name, as the two halves of a run add their
// set-up times.
func (r report) add(name string, value float64, unit string) {
	r.set(name, r[name].Value+value, unit)
}

// workloads maps each workload name to the scheme of its batch half. Every
// workload runs the batch half (the three engines on a random graph under
// that scheme) for the first two thirds of the measuring time and the
// serving half (the read/write mix on a durable view) for the last third,
// so every workload reports every metric. The batch half gets more time
// because its paired ratios spread more from run to run (README.md).
var workloads = map[string]scheme{
	"tc-shuffle": shuffle,
	"tc-local":   local,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: tc-shuffle or tc-local")
	seed := fl.Int64("seed", 7, "input seed")
	seconds := fl.Float64("seconds", 10, "measurement time")
	trace := fl.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	out := fl.String("out", ".bench_build", "directory for run state and the trace file")
	if err := fl.Parse(args); err != nil {
		return err
	}
	s, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	measure := time.Duration(*seconds * float64(time.Second))
	cfg := config{seed: *seed, measure: measure * 2 / 3, out: *out}
	if *trace == 1 {
		cfg.tr = newTracer()
	}

	var t tally
	rep := report{}
	prov, err := runTC(cfg, s, &t, rep)
	if err != nil {
		return err
	}
	cfg.measure = measure - cfg.measure
	served, err := runServe(cfg, &t, rep)
	if err != nil {
		return err
	}
	prov.Fsync = served.Fsync
	prov.fill(*name, *seed, *trace)
	if cfg.tr != nil {
		path := filepath.Join(*out, fmt.Sprintf("perfbench-trace-%s-seed%d.json", *name, *seed))
		if err := writeTraceFile(cfg.tr, path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# chrome trace: %s\n", path)
		writeSelfTable(stdout, cfg.tr.selfTimes())
	}
	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# provenance %s\n", pj)
	names := make([]string, 0, len(rep))
	for n, m := range rep {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "# %-32s %14.6f %s\n", n, rep[n].Value, rep[n].Unit)
	}
	line, err := json.Marshal(result{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   rep,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func writeTraceFile(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// provenance records the host and inputs a run measured.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Workers    int    `json:"workers"`
	Fsync      string `json:"fsync"`
}

func (p *provenance) fill(workload string, seed int64, trace int) {
	p.Workload, p.Seed, p.Trace = workload, seed, trace
	p.NumCPU = runtime.NumCPU()
	p.GOMAXPROCS = runtime.GOMAXPROCS(0)
	p.GoVersion = runtime.Version()
	p.Commit = gitCommit()
	p.SourceHash = sourceHash()
}

// gitCommit reads HEAD from .git without running git; a checkout without
// history reports "unknown" and is identified by its source hash instead.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceHash is a SHA-256 over the paths and contents of the Go sources
// and module files under the working directory, skipping hidden
// directories such as .git and the build directory.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
