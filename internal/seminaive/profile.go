package seminaive

import (
	"fmt"
	"strings"
	"time"

	"parlog/internal/ast"
)

// AtomProfile is the runtime account of one body atom (indexed by textual
// body position, whatever execution order the plan chose): how many times
// the join level opened (an index probe or a scan), how many live rows it
// read, and how many of them survived the level's check columns,
// constraints and negation probes to feed the next level. Planned is the
// relation's size when the rule compiled (-1 when no store was consulted),
// so an explain-analyze report can show planned-vs-actual side by side.
type AtomProfile struct {
	Pred    string
	Probes  int64
	Rows    int64
	Matches int64
	Planned int64
}

// ProcProfile is one worker's share of a rule's runtime: the parallel and
// distributed engines attach one entry per processor that evaluated the
// rule, which is what makes per-rule skew visible after the merge.
type ProcProfile struct {
	Proc    int
	Firings int64
	Dup     int64
	WallNs  int64
}

// RuleProfile is the runtime account of one rule: Definition 4 firings
// (successful ground substitutions after constraints), the tuples that
// survived dedup (New) and the rederivations (Dup), the number of
// enumeration passes and their wall time, per-atom join counters, and —
// on the parallel engines — per-processor attribution. All fields are
// exported and flat so a record travels the distributed runtime's gob
// control envelope unchanged.
type RuleProfile struct {
	// Key is the merge key: the rule formatted with its constraints
	// stripped, so the per-worker variants of one source rule (differing
	// only in their h_i(seq)=i restriction constraint) fold into a single
	// entry across workers and across the wire.
	Key  string
	Pred string

	Firings    int64
	New        int64
	Dup        int64
	Iterations int64
	WallNs     int64

	Atoms []AtomProfile
	Procs []ProcProfile
}

// merge folds another record of the same rule (same Key) into rp.
func (rp *RuleProfile) merge(o *RuleProfile) {
	rp.Firings += o.Firings
	rp.New += o.New
	rp.Dup += o.Dup
	rp.Iterations += o.Iterations
	rp.WallNs += o.WallNs
	if rp.Pred == "" {
		rp.Pred = o.Pred
	}
	for len(rp.Atoms) < len(o.Atoms) {
		rp.Atoms = append(rp.Atoms, AtomProfile{Planned: -1})
	}
	for i := range o.Atoms {
		a, b := &rp.Atoms[i], &o.Atoms[i]
		if a.Pred == "" {
			a.Pred = b.Pred
		}
		a.Probes += b.Probes
		a.Rows += b.Rows
		a.Matches += b.Matches
		if b.Planned > a.Planned {
			a.Planned = b.Planned
		}
	}
	for _, pp := range o.Procs {
		rp.addProc(pp)
	}
}

// addProc folds one processor attribution in, summing with an existing
// entry for the same processor (a stratified run evaluates the same rule
// set once per stratum on the same workers).
func (rp *RuleProfile) addProc(pp ProcProfile) {
	for i := range rp.Procs {
		if rp.Procs[i].Proc == pp.Proc {
			rp.Procs[i].Firings += pp.Firings
			rp.Procs[i].Dup += pp.Dup
			rp.Procs[i].WallNs += pp.WallNs
			return
		}
	}
	rp.Procs = append(rp.Procs, pp)
}

// ProfileKey returns the merge key of a rule's profile records: the rule
// formatted with its constraints stripped. The per-processor copies of a
// rewritten rule differ only in their restriction constraint, so keying on
// the constraint-free text is what lets N workers' records merge into one
// line per source rule.
func ProfileKey(prog *ast.Program, r ast.Rule) string {
	r.Constraints = nil
	return prog.FormatRule(r)
}

// Profile is the runtime profile of one evaluation — the analyze half of
// explain-analyze. Rules appear in first-recorded (compile) order, the same
// order the static plan report uses.
type Profile struct {
	// Engine names the engine that produced (or merged) the profile:
	// seminaive, naive, parallel or dist.
	Engine string
	// WallNs is the end-to-end evaluation wall time.
	WallNs int64
	Rules  []*RuleProfile
}

// Rule returns the record for key, creating it if absent.
func (p *Profile) Rule(key, pred string) *RuleProfile {
	for _, rp := range p.Rules {
		if rp.Key == key {
			return rp
		}
	}
	rp := &RuleProfile{Key: key, Pred: pred}
	p.Rules = append(p.Rules, rp)
	return rp
}

// Add merges one rule record into the profile.
func (p *Profile) Add(rp *RuleProfile) {
	if rp == nil {
		return
	}
	p.Rule(rp.Key, rp.Pred).merge(rp)
}

// AddRules merges a batch of rule records (a worker's contribution).
func (p *Profile) AddRules(rps []*RuleProfile) {
	for _, rp := range rps {
		p.Add(rp)
	}
}

// Merge folds another profile into p, rule records keyed by Key and wall
// time taking the maximum (concurrent engines overlap; their spans do not
// add).
func (p *Profile) Merge(o *Profile) {
	if o == nil {
		return
	}
	if o.WallNs > p.WallNs {
		p.WallNs = o.WallNs
	}
	p.AddRules(o.Rules)
}

// TotalFirings sums Definition 4 firings over all rules — the quantity the
// differential tests compare against the counting sink and the sequential
// reference.
func (p *Profile) TotalFirings() int64 {
	var n int64
	for _, rp := range p.Rules {
		n += rp.Firings
	}
	return n
}

// FiringsByPred sums firings per head predicate.
func (p *Profile) FiringsByPred() map[string]int64 {
	out := make(map[string]int64, len(p.Rules))
	for _, rp := range p.Rules {
		out[rp.Pred] += rp.Firings
	}
	return out
}

// String renders the profile as stable, line-oriented analyze text: one
// block per rule with firing/dedup/iteration counters, per-atom
// planned-vs-actual join cardinalities, and per-worker attribution when
// present. Wall times are the only machine-varying tokens; golden tests
// normalize the "wall=…" fields.
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "analyze: engine=%s wall=%s\n", p.Engine, time.Duration(p.WallNs))
	for _, rp := range p.Rules {
		fmt.Fprintf(&b, "rule %s\n", rp.Key)
		fmt.Fprintf(&b, "  firings=%d new=%d dup=%d iterations=%d wall=%s\n",
			rp.Firings, rp.New, rp.Dup, rp.Iterations, time.Duration(rp.WallNs))
		for i, a := range rp.Atoms {
			planned := "?"
			if a.Planned >= 0 {
				planned = fmt.Sprintf("%d", a.Planned)
			}
			fmt.Fprintf(&b, "  atom %d %s: probes=%d rows=%d matches=%d planned=%s\n",
				i, a.Pred, a.Probes, a.Rows, a.Matches, planned)
		}
		for _, pp := range rp.Procs {
			fmt.Fprintf(&b, "  proc %d: firings=%d dup=%d wall=%s\n",
				pp.Proc, pp.Firings, pp.Dup, time.Duration(pp.WallNs))
		}
	}
	return b.String()
}

// planProfile holds a plan's per-execution-position runtime counters.
// Allocated only by EnableProfile: a nil pointer is the disabled state, and
// the enumeration loops pay one hoisted nil check for it.
type planProfile struct {
	atoms []AtomProfile
}

// EnableProfile arms runtime counters on the plan. Idempotent; call before
// Enumerate or Stream. Plans are engine- or worker-local, so the counters
// are deliberately plain int64s, not atomics.
func (p *Plan) EnableProfile() {
	if p.prof == nil {
		p.prof = &planProfile{atoms: make([]AtomProfile, len(p.atoms))}
	}
}

// WithProfile returns a shallow copy of the plan with freshly armed runtime
// counters, leaving the receiver untouched. Engines that share compiled plans
// across nodes or across runs (the parallel Program's per-worker rule sets)
// profile through per-node copies so counters never leak between runs.
func (p *Plan) WithProfile() *Plan {
	cp := *p
	cp.prof = &planProfile{atoms: make([]AtomProfile, len(cp.atoms))}
	return &cp
}

// ProfileInto folds the plan's accumulated counters into rp, mapping
// execution positions back to textual body positions so delta variants of
// one rule (which permute the order) land on the same atoms. Call exactly
// once per plan, after its last enumeration; a plan that never had
// EnableProfile called is a no-op.
func (p *Plan) ProfileInto(rp *RuleProfile) {
	if p.prof == nil {
		return
	}
	for len(rp.Atoms) < len(p.Rule.Body) {
		rp.Atoms = append(rp.Atoms, AtomProfile{Planned: -1})
	}
	for k, idx := range p.Order {
		a := &rp.Atoms[idx]
		a.Pred = p.Rule.Body[idx].Pred
		a.Probes += p.prof.atoms[k].Probes
		a.Rows += p.prof.atoms[k].Rows
		a.Matches += p.prof.atoms[k].Matches
		if p.planned[k] > a.Planned {
			a.Planned = p.planned[k]
		}
	}
}
