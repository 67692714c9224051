package ast

import "strings"

// Atom is a predicate symbol applied to terms.
type Atom struct {
	Pred string
	Args []Term
}

// NewAtom builds an atom.
func NewAtom(pred string, args ...Term) Atom {
	return Atom{Pred: pred, Args: args}
}

// Arity returns the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// IsGround reports whether the atom contains no variables.
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if t.IsVar() {
			return false
		}
	}
	return true
}

// Vars appends the distinct variables of a, in order of first occurrence, to
// dst and returns the extended slice.
func (a Atom) Vars(dst []string) []string {
	for _, t := range a.Args {
		if !t.IsVar() {
			continue
		}
		if !containsStr(dst, t.VarName) {
			dst = append(dst, t.VarName)
		}
	}
	return dst
}

// HasVar reports whether variable name occurs in a.
func (a Atom) HasVar(name string) bool {
	for _, t := range a.Args {
		if t.VarName == name {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of a.
func (a Atom) Clone() Atom {
	args := make([]Term, len(a.Args))
	copy(args, a.Args)
	return Atom{Pred: a.Pred, Args: args}
}

// Rename returns a copy of a with every variable renamed through f.
func (a Atom) Rename(f func(string) string) Atom {
	out := a.Clone()
	for i, t := range out.Args {
		if t.IsVar() {
			out.Args[i] = V(f(t.VarName))
		}
	}
	return out
}

// Apply returns a copy of a with variables bound by sub replaced by their
// constants. Unbound variables are left intact, so Apply works for partial
// substitutions too.
func (a Atom) Apply(sub Subst) Atom {
	out := a.Clone()
	for i, t := range out.Args {
		if t.IsVar() {
			if v, ok := sub[t.VarName]; ok {
				out.Args[i] = C(v)
			}
		}
	}
	return out
}

// String renders the atom with raw constant ids; use Program.FormatAtom for
// spelled-out constants. A zero-arity atom is its bare predicate name.
func (a Atom) String() string {
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
		b.WriteString(t.String())
	}
	b.WriteByte(')')
	return b.String()
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
