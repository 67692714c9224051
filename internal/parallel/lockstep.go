package parallel

import "parlog/internal/relation"

// RunLockstep runs Run's superstep schedule with each superstep's turns
// taken in dense-index order on the calling goroutine, so the event stream
// delivered to cfg.Sink is identical run-to-run — the property the golden
// traces pin down — and is the schedule Run executes.
func RunLockstep(p *Program, edb relation.Store, cfg RunConfig) (*Result, error) {
	return supersteps(p, edb, cfg, "lockstep", func(turns []func()) {
		for _, turn := range turns {
			turn()
		}
	})
}
