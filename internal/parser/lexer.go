// Package parser turns Datalog source text into ast.Program values.
//
// Grammar (informally):
//
//	program  := { clause }
//	clause   := atom [ ":-" atom { "," atom } ] "."
//	atom     := ident [ "(" term { "," term } ")" ]
//	term     := VARIABLE | CONSTANT | INTEGER | STRING
//
// Identifiers starting with an upper-case letter or "_" are variables;
// identifiers starting with a lower-case letter, integers and quoted strings
// are constants. A bare ident is a zero-arity atom. "%" starts a line
// comment.
package parser

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokVariable
	tokInt
	tokString
	tokLParen
	tokRParen
	tokComma
	tokDot
	tokImplies // ":-"
	tokBang    // "!" (negation, an extension beyond the paper's pure Datalog)
)

// String names the token kind for error messages.
func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokVariable:
		return "variable"
	case tokInt:
		return "integer"
	case tokString:
		return "string"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokDot:
		return "'.'"
	case tokImplies:
		return "':-'"
	case tokBang:
		return "'!'"
	}
	return "unknown token"
}

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

// Error is a parse error with a source position.
type Error struct {
	Line, Col int
	Msg       string
}

// Error implements the error interface with a line:col prefix.
func (e *Error) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) errorf(line, col int, format string, args ...any) *Error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() (byte, bool) {
	if l.pos >= len(l.src) {
		return 0, false
	}
	return l.src[l.pos], true
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() {
	for {
		c, ok := l.peekByte()
		if !ok {
			return
		}
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '%':
			for {
				c, ok := l.peekByte()
				if !ok || c == '\n' {
					break
				}
				l.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentChar(c byte) bool {
	return c == '_' || c == '\'' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func (l *lexer) next() (token, *Error) {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	c, ok := l.peekByte()
	if !ok {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	switch {
	case c == '(':
		l.advance()
		return token{kind: tokLParen, text: "(", line: line, col: col}, nil
	case c == ')':
		l.advance()
		return token{kind: tokRParen, text: ")", line: line, col: col}, nil
	case c == ',':
		l.advance()
		return token{kind: tokComma, text: ",", line: line, col: col}, nil
	case c == '.':
		l.advance()
		return token{kind: tokDot, text: ".", line: line, col: col}, nil
	case c == '!':
		l.advance()
		return token{kind: tokBang, text: "!", line: line, col: col}, nil
	case c == ':':
		l.advance()
		if c2, ok := l.peekByte(); ok && c2 == '-' {
			l.advance()
			return token{kind: tokImplies, text: ":-", line: line, col: col}, nil
		}
		return token{}, l.errorf(line, col, "expected ':-', found ':%c'", c)
	case c == '"':
		l.advance()
		var b strings.Builder
		for {
			c, ok := l.peekByte()
			if !ok {
				return token{}, l.errorf(line, col, "unterminated string literal")
			}
			l.advance()
			if c == '"' {
				return token{kind: tokString, text: b.String(), line: line, col: col}, nil
			}
			if c == '\\' {
				esc, ok := l.peekByte()
				if !ok {
					return token{}, l.errorf(line, col, "unterminated string literal")
				}
				l.advance()
				switch esc {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				case '\\', '"':
					b.WriteByte(esc)
				default:
					return token{}, l.errorf(l.line, l.col, "unknown escape '\\%c'", esc)
				}
				continue
			}
			b.WriteByte(c)
		}
	case c == '-' || unicode.IsDigit(rune(c)):
		start := l.pos
		l.advance()
		if c == '-' {
			d, ok := l.peekByte()
			if !ok || !unicode.IsDigit(rune(d)) {
				return token{}, l.errorf(line, col, "expected digit after '-'")
			}
		}
		for {
			d, ok := l.peekByte()
			if !ok || !unicode.IsDigit(rune(d)) {
				break
			}
			l.advance()
		}
		return token{kind: tokInt, text: l.src[start:l.pos], line: line, col: col}, nil
	case isIdentStart(c):
		start := l.pos
		l.advance()
		for {
			d, ok := l.peekByte()
			if !ok || !isIdentChar(d) {
				break
			}
			l.advance()
		}
		text := l.src[start:l.pos]
		first := rune(text[0])
		if first == '_' || unicode.IsUpper(first) {
			return token{kind: tokVariable, text: text, line: line, col: col}, nil
		}
		return token{kind: tokIdent, text: text, line: line, col: col}, nil
	default:
		return token{}, l.errorf(line, col, "unexpected character %q", c)
	}
}
