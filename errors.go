package parlog

import (
	"errors"

	"parlog/internal/analysis"
	"parlog/internal/dist"
)

// Sentinel errors for errors.Is. Every error the evaluators return wraps
// the matching sentinel with %w, so callers can branch on the failure class
// without parsing messages.
var (
	// ErrNotLinearSirup reports that a sirup-only strategy (Sections 3–6)
	// was asked to run a program that is not a linear sirup.
	ErrNotLinearSirup = analysis.ErrNotLinearSirup

	// ErrWorkerLost reports that a distributed run lost a worker it could
	// not recover from — no survivor was left to adopt the dead worker's
	// hash bucket, or the death landed after the run's last superstep.
	ErrWorkerLost = dist.ErrWorkerLost

	// ErrTimeout reports that a distributed run exceeded its configured
	// Timeout before its last superstep.
	ErrTimeout = dist.ErrTimeout

	// ErrResourceExhausted reports that a distributed run stayed over its
	// MaxMemoryBytes budget even after a forced checkpoint-and-truncate
	// cycle — the fail-fast alternative to an out-of-memory kill.
	ErrResourceExhausted = dist.ErrResourceExhausted

	// ErrUnknownPredicate reports a query goal naming a predicate the
	// program never mentions, such as a misspelt one.
	ErrUnknownPredicate = errors.New("unknown predicate")
)
