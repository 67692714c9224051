package ast

import (
	"sort"
	"strings"
)

// Program is a finite set of rules sharing one constant interner. Facts may
// be represented either as ground empty-body rules or held externally in a
// relation store; the parser produces the former and SplitFacts converts.
type Program struct {
	Rules    []Rule
	Interner *Interner
}

// NewProgram returns an empty program with a fresh interner.
func NewProgram() *Program {
	return &Program{Interner: NewInterner()}
}

// AddRule appends a rule.
func (p *Program) AddRule(r Rule) { p.Rules = append(p.Rules, r) }

// Clone returns a deep copy of the program sharing the interner (the
// interner is append-only, so sharing is safe for readers).
func (p *Program) Clone() *Program {
	out := &Program{Interner: p.Interner, Rules: make([]Rule, len(p.Rules))}
	for i, r := range p.Rules {
		out.Rules[i] = r.Clone()
	}
	return out
}

// IDBPreds returns the derived (intensional) predicate names: those occurring
// in some rule head that is not a fact, plus heads of facts whose predicate
// also heads a proper rule. Sorted for determinism.
func (p *Program) IDBPreds() []string {
	set := make(map[string]bool)
	for _, r := range p.Rules {
		if !r.IsFact() {
			set[r.Head.Pred] = true
		}
	}
	return sortedKeys(set)
}

// EDBPreds returns the base (extensional) predicate names: those occurring in
// rule bodies or fact heads but never in a proper rule head. Sorted.
func (p *Program) EDBPreds() []string {
	idb := make(map[string]bool)
	for _, r := range p.Rules {
		if !r.IsFact() {
			idb[r.Head.Pred] = true
		}
	}
	set := make(map[string]bool)
	for _, r := range p.Rules {
		if r.IsFact() && !idb[r.Head.Pred] {
			set[r.Head.Pred] = true
		}
		for _, a := range r.Body {
			if !idb[a.Pred] {
				set[a.Pred] = true
			}
		}
		for _, a := range r.Negated {
			if !idb[a.Pred] {
				set[a.Pred] = true
			}
		}
	}
	return sortedKeys(set)
}

// Arities returns the arity of every predicate mentioned in the program. It
// returns an error-free map; arity conflicts are the parser's and analysis'
// concern.
func (p *Program) Arities() map[string]int {
	m := make(map[string]int)
	for _, r := range p.Rules {
		m[r.Head.Pred] = r.Head.Arity()
		for _, a := range r.Body {
			m[a.Pred] = a.Arity()
		}
		for _, a := range r.Negated {
			m[a.Pred] = a.Arity()
		}
	}
	return m
}

// FormatTerm renders t with constants spelled out through the interner.
// Constant spellings that would not re-lex as a single constant token (or
// would lex as a variable) are quoted, so printing and re-parsing a program
// is a fixpoint.
func (p *Program) FormatTerm(t Term) string {
	if t.IsVar() {
		return t.VarName
	}
	return QuoteConst(p.Interner.Name(t.Value))
}

// QuoteConst returns name if it lexes as a bare constant (lower-case-initial
// identifier or integer literal), and a quoted string literal otherwise.
func QuoteConst(name string) string {
	if isBareConst(name) {
		return name
	}
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(name); i++ {
		switch c := name[i]; c {
		case '\\', '"':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// isBareConst reports whether name lexes as one constant token: a
// lower-case-ASCII-initial identifier of ASCII identifier characters, or an
// optionally negated decimal integer.
func isBareConst(name string) bool {
	if name == "" {
		return false
	}
	// Integer literal.
	digits := name
	if name[0] == '-' {
		digits = name[1:]
	}
	if len(digits) > 0 {
		numeric := true
		for i := 0; i < len(digits); i++ {
			if digits[i] < '0' || digits[i] > '9' {
				numeric = false
				break
			}
		}
		if numeric {
			return true
		}
	}
	// Lower-case identifier. Stick to ASCII: the lexer's byte-wise letter
	// test treats multi-byte UTF-8 inconsistently, so anything non-ASCII is
	// safer quoted.
	if name[0] < 'a' || name[0] > 'z' {
		return false
	}
	for i := 1; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '\'':
		default:
			return false
		}
	}
	return true
}

// FormatAtom renders a with constants spelled out; a zero-arity atom is its
// bare predicate name.
func (p *Program) FormatAtom(a Atom) string {
	if len(a.Args) == 0 {
		return a.Pred
	}
	var b strings.Builder
	b.WriteString(a.Pred)
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.FormatTerm(t))
	}
	b.WriteByte(')')
	return b.String()
}

// FormatRule renders r with constants spelled out.
func (p *Program) FormatRule(r Rule) string {
	var b strings.Builder
	b.WriteString(p.FormatAtom(r.Head))
	if len(r.Body) == 0 && len(r.Negated) == 0 && len(r.Constraints) == 0 {
		b.WriteByte('.')
		return b.String()
	}
	b.WriteString(" :- ")
	sep := false
	for _, a := range r.Body {
		if sep {
			b.WriteString(", ")
		}
		sep = true
		b.WriteString(p.FormatAtom(a))
	}
	for _, a := range r.Negated {
		if sep {
			b.WriteString(", ")
		}
		sep = true
		b.WriteByte('!')
		b.WriteString(p.FormatAtom(a))
	}
	for _, c := range r.Constraints {
		if sep {
			b.WriteString(", ")
		}
		sep = true
		b.WriteString(c.String())
	}
	b.WriteByte('.')
	return b.String()
}

// String renders the whole program, one rule per line.
func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(p.FormatRule(r))
		b.WriteByte('\n')
	}
	return b.String()
}

// FactTuples extracts the ground facts of the program, grouped by predicate,
// and returns the program's proper (non-fact) rules. The original program is
// not modified.
func (p *Program) FactTuples() (rules []Rule, facts map[string][][]Value) {
	facts = make(map[string][][]Value)
	for _, r := range p.Rules {
		if r.IsFact() {
			tuple := make([]Value, r.Head.Arity())
			for i, t := range r.Head.Args {
				tuple[i] = t.Value
			}
			facts[r.Head.Pred] = append(facts[r.Head.Pred], tuple)
			continue
		}
		rules = append(rules, r.Clone())
	}
	return rules, facts
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
