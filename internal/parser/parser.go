package parser

import (
	"fmt"

	"parlog/internal/ast"
)

type parser struct {
	lx   *lexer
	tok  token
	prog *ast.Program
	// anonCount numbers the anonymous variables "_" so each occurrence is
	// distinct, as in Prolog.
	anonCount int
}

// Parse parses a complete Datalog program. Facts appear as ground empty-body
// rules; use Program.FactTuples to split them out. Constants are interned
// into a fresh interner.
func Parse(src string) (*ast.Program, error) {
	return ParseInto(src, ast.NewProgram())
}

// ParseInto parses src, appending rules to prog and interning constants into
// prog's interner. It is useful for layering facts from a second source onto
// an existing program.
func ParseInto(src string, prog *ast.Program) (*ast.Program, error) {
	p := &parser{lx: newLexer(src), prog: prog}
	if err := p.advance(); err != nil {
		return nil, err
	}
	for p.tok.kind != tokEOF {
		r, err := p.clause()
		if err != nil {
			return nil, err
		}
		if !r.IsFact() && !r.IsSafe() {
			return nil, &Error{Line: p.tok.line, Col: p.tok.col,
				Msg: fmt.Sprintf("unsafe rule (a head variable does not occur in the body): %s", prog.FormatRule(r))}
		}
		prog.AddRule(r)
	}
	if err := checkArities(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// MustParse parses src and panics on error; for tests and examples.
func MustParse(src string) *ast.Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *parser) advance() error {
	tok, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = tok
	return nil
}

func (p *parser) expect(kind tokenKind) (token, error) {
	if p.tok.kind != kind {
		return token{}, &Error{Line: p.tok.line, Col: p.tok.col,
			Msg: fmt.Sprintf("expected %s, found %s %q", kind, p.tok.kind, p.tok.text)}
	}
	tok := p.tok
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return tok, nil
}

func (p *parser) clause() (ast.Rule, error) {
	head, err := p.atom()
	if err != nil {
		return ast.Rule{}, err
	}
	r := ast.Rule{Head: head}
	if p.tok.kind == tokImplies {
		if err := p.advance(); err != nil {
			return ast.Rule{}, err
		}
		for {
			negated := false
			if p.tok.kind == tokBang {
				negated = true
				if err := p.advance(); err != nil {
					return ast.Rule{}, err
				}
			}
			a, err := p.atom()
			if err != nil {
				return ast.Rule{}, err
			}
			if negated {
				r.Negated = append(r.Negated, a)
			} else {
				r.Body = append(r.Body, a)
			}
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return ast.Rule{}, err
			}
		}
	}
	if _, err := p.expect(tokDot); err != nil {
		return ast.Rule{}, err
	}
	return r, nil
}

// atom parses pred(t1, ..., tn), or a bare pred as a zero-arity atom.
func (p *parser) atom() (ast.Atom, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return ast.Atom{}, err
	}
	if p.tok.kind != tokLParen {
		return ast.Atom{Pred: name.text}, nil
	}
	if err := p.advance(); err != nil {
		return ast.Atom{}, err
	}
	var args []ast.Term
	for {
		t, err := p.term()
		if err != nil {
			return ast.Atom{}, err
		}
		args = append(args, t)
		if p.tok.kind != tokComma {
			break
		}
		if err := p.advance(); err != nil {
			return ast.Atom{}, err
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return ast.Atom{}, err
	}
	return ast.Atom{Pred: name.text, Args: args}, nil
}

func (p *parser) term() (ast.Term, error) {
	switch p.tok.kind {
	case tokVariable:
		name := p.tok.text
		if name == "_" {
			p.anonCount++
			name = fmt.Sprintf("_G%d", p.anonCount)
		}
		if err := p.advance(); err != nil {
			return ast.Term{}, err
		}
		return ast.V(name), nil
	case tokIdent, tokInt, tokString:
		v := p.prog.Interner.Intern(p.tok.text)
		if err := p.advance(); err != nil {
			return ast.Term{}, err
		}
		return ast.C(v), nil
	default:
		return ast.Term{}, &Error{Line: p.tok.line, Col: p.tok.col,
			Msg: fmt.Sprintf("expected term, found %s %q", p.tok.kind, p.tok.text)}
	}
}

// checkArities rejects programs that use one predicate symbol at two
// different arities, which is almost always a typo.
func checkArities(prog *ast.Program) error {
	seen := make(map[string]int)
	check := func(a ast.Atom) error {
		if prev, ok := seen[a.Pred]; ok && prev != a.Arity() {
			return &Error{Line: 0, Col: 0,
				Msg: fmt.Sprintf("predicate %s used with arities %d and %d", a.Pred, prev, a.Arity())}
		}
		seen[a.Pred] = a.Arity()
		return nil
	}
	for _, r := range prog.Rules {
		if err := check(r.Head); err != nil {
			return err
		}
		for _, a := range r.Body {
			if err := check(a); err != nil {
				return err
			}
		}
		for _, a := range r.Negated {
			if err := check(a); err != nil {
				return err
			}
		}
	}
	return nil
}
