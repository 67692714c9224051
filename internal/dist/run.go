package dist

import (
	"fmt"
	"sync"

	"parlog/internal/parallel"
	"parlog/internal/relation"
)

// Run executes the compiled program with one TCP worker per processor, all
// within this process but communicating exclusively over loopback sockets —
// no memory is shared between processors. It is the drop-in distributed
// counterpart of parallel.Run. Every worker gets a node factory so the
// coordinator can reassign a dead worker's bucket to any survivor, and
// cfg.WorkerDial (when set) threads a fault injector under each worker's
// connection.
func Run(p *parallel.Program, edb relation.Store, cfg Config) (*Result, error) {
	global, err := parallel.PrepareEDB(p, edb)
	if err != nil {
		return nil, err
	}
	// The program's processors become hash buckets; the number of OS
	// workers may be smaller (cfg.Workers), in which case each worker
	// natively hosts bucket wi and adopts the rest at start. The default
	// remains one worker per processor.
	cfg.Buckets = p.Procs.Len()
	if cfg.Workers <= 0 || cfg.Workers > cfg.Buckets {
		cfg.Workers = cfg.Buckets
	}
	cfg.ProcIDs = p.Procs.IDs()
	if cfg.Pinned == nil {
		cfg.Pinned = p.PinnedBuckets()
	}
	coord, err := NewCoordinator(cfg, p.IDB)
	if err != nil {
		return nil, err
	}

	if cfg.Sink != nil {
		cfg.Sink.RunStart("dist", p.Procs.IDs())
	}
	// built keeps the first node made for each bucket: its EDB fragment
	// gives the run's placements without fragmenting the EDB again.
	var builtMu sync.Mutex
	built := make([]*parallel.Node, cfg.Buckets)
	newNode := func(bucket int) *parallel.Node {
		n := parallel.NewNode(p, bucket, global)
		n.SetSink(cfg.Sink)
		builtMu.Lock()
		if built[bucket] == nil {
			built[bucket] = n
		}
		builtMu.Unlock()
		return n
	}
	type werr struct {
		wi  int
		err error
	}
	errs := make(chan werr, cfg.Workers)
	for wi := 0; wi < cfg.Workers; wi++ {
		wi := wi
		wcfg := WorkerConfig{
			Ctx:        cfg.Ctx,
			NewNode:    newNode,
			Dir:        cfg.WorkerDir,
			MaxRetries: cfg.MaxRetries,
			RetryBase:  cfg.RetryBase,
		}
		if cfg.WorkerDial != nil {
			wcfg.Dial = cfg.WorkerDial(wi)
		}
		go func() {
			errs <- werr{wi, RunWorker(coord.Addr(), newNode(wi), wcfg)}
		}()
	}

	res, err := coord.Wait()
	if err != nil {
		return nil, err
	}
	// A worker the coordinator declared dead is expected to fail — its
	// bucket was recovered elsewhere. Any other failure is real.
	dead := make(map[int]bool, len(res.Deaths))
	for _, wi := range res.Deaths {
		dead[wi] = true
	}
	for i := 0; i < cfg.Workers; i++ {
		if w := <-errs; w.err != nil && !dead[w.wi] {
			return nil, fmt.Errorf("dist: worker %d failed: %w", w.wi, w.err)
		}
	}
	// Every bucket was hosted by a live worker at the end, so each has a
	// node; every worker has returned, so none is still being made.
	res.Placements = parallel.NodePlacements(p, global, built)
	if cfg.Sink != nil {
		cfg.Sink.RunEnd(res.Wall)
	}
	return res, nil
}
