package parlog

import "parlog/internal/obs"

// EventSink receives an evaluation's event stream: run boundaries,
// per-processor semi-naive iterations with their delta sizes, per-rule
// firing batches, inter-processor messages, busy/idle transitions and
// termination-detector probes. Implementations must be concurrency-safe
// and fast; see the interface's method docs for the exact contract. Attach
// one via EvalOptions.Trace.
type EventSink = obs.EventSink

// FanoutSinks combines several sinks into one, dropping nils.
func FanoutSinks(sinks ...EventSink) EventSink { return obs.Fanout(sinks...) }

// TraceEvent is one recorded event of a TraceRecorder.
type TraceEvent = obs.Event

// TraceRecorder is the built-in JSON trace sink: it captures the full
// event stream in memory, exports it with WriteJSON, and canonicalizes it
// (timestamps zeroed) for deterministic comparison.
type TraceRecorder = obs.Recorder

// NewTraceRecorder returns an empty trace recorder.
func NewTraceRecorder() *TraceRecorder { return obs.NewRecorder() }

// CountingSink is the built-in lock-free metrics sink; its Snapshot is
// what Result.Metrics holds when EvalOptions.Metrics is set. Use it
// directly (via EvalOptions.Trace) to accumulate metrics across several
// evaluations.
type CountingSink = obs.Counting

// NewCountingSink returns an empty counting sink.
func NewCountingSink() *CountingSink { return obs.NewCounting() }

// Metrics is a counting sink's aggregate snapshot: per-processor iteration
// deltas, firings, traffic and busy/idle totals, plus per-edge tuple
// counts.
type Metrics = obs.Metrics

// ProcMetrics is one processor's aggregate counters within a Metrics.
type ProcMetrics = obs.ProcMetrics

// IterationDelta records the new-tuple count of one semi-naive iteration.
type IterationDelta = obs.IterationDelta

// EdgeMetrics is the traffic on one directed channel t_{From,To}.
type EdgeMetrics = obs.EdgeMetrics
