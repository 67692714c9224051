package parlog

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestValidate(t *testing.T) {
	good := []struct {
		name string
		opts EvalOptions
	}{
		{"zero value", EvalOptions{}},
		{"naive sequential", EvalOptions{Naive: true}},
		{"parallel", EvalOptions{Engine: EngineParallel, Workers: 4}},
		{"parallel default workers", EvalOptions{Engine: EngineParallel}},
		{"distributed with fault knobs", EvalOptions{
			Engine: EngineDistributed, Workers: 2,
			MaxRetries: 3, HeartbeatInterval: 10 * time.Millisecond,
			WorkerDeadline: time.Second, CheckpointEvery: 2,
			MaxMemoryBytes: 1 << 24,
		}},
		{"metrics server", EvalOptions{
			MetricsAddr: "127.0.0.1:0", Pprof: true,
			MetricsHold: time.Second, TelemetryReady: func(string) {},
		}},
		{"tradeoff locality", EvalOptions{Engine: EngineParallel, Locality: 0.5}},
	}
	for _, tc := range good {
		if err := tc.opts.Validate(); err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
	}

	bad := []struct {
		name string
		opts EvalOptions
	}{
		{"unknown engine", EvalOptions{Engine: Engine(99)}},
		{"negative workers", EvalOptions{Workers: -1}},
		{"workers on sequential", EvalOptions{Workers: 4}},
		{"naive parallel", EvalOptions{Engine: EngineParallel, Naive: true}},
		{"negative iterations", EvalOptions{MaxIterations: -1}},
		{"locality out of range", EvalOptions{Engine: EngineParallel, Locality: 1.5}},
		{"retries on sequential", EvalOptions{MaxRetries: 3}},
		{"heartbeat on parallel", EvalOptions{Engine: EngineParallel, HeartbeatInterval: time.Second}},
		{"memory budget on parallel", EvalOptions{Engine: EngineParallel, MaxMemoryBytes: 1024}},
		{"negative retries", EvalOptions{Engine: EngineDistributed, MaxRetries: -1}},
		{"negative deadline", EvalOptions{Engine: EngineDistributed, WorkerDeadline: -time.Second}},
		{"negative memory budget", EvalOptions{Engine: EngineDistributed, MaxMemoryBytes: -1}},
		{"pprof without addr", EvalOptions{Pprof: true}},
		{"hold without addr", EvalOptions{MetricsHold: time.Second}},
		{"ready without addr", EvalOptions{TelemetryReady: func(string) {}}},
		{"negative hold", EvalOptions{MetricsAddr: "127.0.0.1:0", MetricsHold: -time.Second}},
	}
	for _, tc := range bad {
		err := tc.opts.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s: error %v does not wrap ErrBadOptions", tc.name, err)
		}
	}
}

// TestValidateCalledOnEntry checks that the evaluation front doors reject
// invalid options before doing any work.
func TestValidateCalledOnEntry(t *testing.T) {
	ctx := context.Background()
	p := MustParse(`anc(X, Y) :- par(X, Y).`)
	badOpts := EvalOptions{Workers: -1}
	if _, err := Eval(ctx, p, nil, badOpts); !errors.Is(err, ErrBadOptions) {
		t.Errorf("Eval: %v", err)
	}
	if _, err := Query(ctx, p, nil, "anc(X, Y)", badOpts); !errors.Is(err, ErrBadOptions) {
		t.Errorf("Query: %v", err)
	}
	if _, err := Open(ctx, p, nil, badOpts); !errors.Is(err, ErrBadOptions) {
		t.Errorf("Open: %v", err)
	}
}
