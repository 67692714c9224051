package parlog

import (
	"errors"
	"fmt"
)

// ErrBadOptions reports an EvalOptions combination that cannot mean what
// the caller intended — an engine-specific knob aimed at the wrong engine,
// a value outside its domain, or two limits that contradict each other.
// Every validation error wraps it, so callers can errors.Is-branch on the
// class without parsing messages.
var ErrBadOptions = errors.New("parlog: invalid options")

func badOptions(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadOptions, fmt.Sprintf(format, args...))
}

// Validate checks the option set for combinations that are certainly
// mistakes, before defaulting fills anything in. Eval, Query and Open call
// it on entry, so a nonsense combination fails fast instead of being
// silently ignored; callers building options programmatically can also call
// it directly. The zero value always validates.
func (o EvalOptions) Validate() error {
	switch o.Engine {
	case EngineSequential, EngineParallel, EngineDistributed:
	default:
		return badOptions("unknown engine %d", o.Engine)
	}
	if o.Workers < 0 {
		return badOptions("Workers must be non-negative, got %d", o.Workers)
	}
	if o.Workers > 0 && o.Engine == EngineSequential {
		return badOptions("Workers is a parallel-engine knob; the sequential engine runs one processor (use EvalParallel, EvalDistributed, or set Engine)")
	}
	if o.Naive && o.Engine != EngineSequential {
		return badOptions("Naive selects the sequential ablation baseline; the parallel engines are always semi-naive")
	}
	if o.MaxIterations < 0 {
		return badOptions("MaxIterations must be non-negative, got %d", o.MaxIterations)
	}
	if o.Locality < 0 || o.Locality > 1 {
		return badOptions("Locality must be in [0,1], got %g", o.Locality)
	}

	if o.Engine != EngineDistributed {
		// The fault-tolerance and memory knobs configure the TCP
		// coordinator; setting them on another engine means the caller
		// expects behavior they will not get.
		distOnly := []struct {
			name string
			set  bool
		}{
			{"MaxRetries", o.MaxRetries != 0},
			{"HeartbeatInterval", o.HeartbeatInterval != 0},
			{"WorkerDeadline", o.WorkerDeadline != 0},
			{"CheckpointEvery", o.CheckpointEvery != 0},
			{"MaxMemoryBytes", o.MaxMemoryBytes != 0},
		}
		for _, k := range distOnly {
			if k.set {
				return badOptions("%s applies only to EngineDistributed", k.name)
			}
		}
	} else {
		if o.MaxRetries < 0 {
			return badOptions("MaxRetries must be non-negative, got %d", o.MaxRetries)
		}
		if o.HeartbeatInterval < 0 || o.WorkerDeadline < 0 {
			return badOptions("distributed intervals must be non-negative")
		}
		if o.CheckpointEvery < 0 || o.MaxMemoryBytes < 0 {
			return badOptions("distributed limits must be non-negative")
		}
	}

	if o.MetricsAddr == "" {
		if o.Pprof {
			return badOptions("Pprof mounts handlers on the MetricsAddr server; set MetricsAddr")
		}
		if o.MetricsHold != 0 {
			return badOptions("MetricsHold keeps the MetricsAddr server alive; set MetricsAddr")
		}
		if o.TelemetryReady != nil {
			return badOptions("TelemetryReady reports the MetricsAddr server's address; set MetricsAddr")
		}
	}
	if o.MetricsHold < 0 {
		return badOptions("MetricsHold must be non-negative, got %v", o.MetricsHold)
	}

	if o.Dir == "" && !o.Durability.isZero() {
		return badOptions("Durability configures the Dir state directory; set Dir")
	}
	switch o.Durability.Fsync {
	case FsyncAlways, FsyncInterval, FsyncNever:
	default:
		return badOptions("unknown fsync policy %d", o.Durability.Fsync)
	}
	if o.Durability.FsyncEvery < 0 {
		return badOptions("Durability.FsyncEvery must be non-negative, got %v", o.Durability.FsyncEvery)
	}
	if o.Durability.FsyncEvery != 0 && o.Durability.Fsync != FsyncInterval {
		return badOptions("Durability.FsyncEvery paces FsyncInterval; set Durability.Fsync")
	}
	if o.Durability.CompactEvery < 0 {
		return badOptions("Durability.CompactEvery must be non-negative, got %d", o.Durability.CompactEvery)
	}
	return nil
}
