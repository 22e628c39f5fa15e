package firrtl

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind enumerates lexical token kinds of the textual IR format.
type tokKind uint8

const (
	tEOF tokKind = iota
	tIdent
	tInt    // possibly negative decimal integer
	tLBrace // {
	tRBrace // }
	tLParen // (
	tRParen // )
	tLBrack // [
	tRBrack // ]
	tLAngle // <
	tRAngle // >
	tComma  // ,
	tColon  // :
	tDot    // .
	tArrow  // <=
	tEquals // =
)

func (k tokKind) String() string {
	switch k {
	case tEOF:
		return "EOF"
	case tIdent:
		return "identifier"
	case tInt:
		return "integer"
	case tLBrace:
		return "'{'"
	case tRBrace:
		return "'}'"
	case tLParen:
		return "'('"
	case tRParen:
		return "')'"
	case tLBrack:
		return "'['"
	case tRBrack:
		return "']'"
	case tLAngle:
		return "'<'"
	case tRAngle:
		return "'>'"
	case tComma:
		return "','"
	case tColon:
		return "':'"
	case tDot:
		return "'.'"
	case tArrow:
		return "'<='"
	case tEquals:
		return "'='"
	}
	return "?"
}

type token struct {
	kind tokKind
	text string
	line int
	col  int
}

// lexer tokenizes the textual IR. Comments run from ';' or '//' to the end
// of the line. Newlines are not significant. A name that is not a plain
// identifier (e.g. the design name "RocketChip-1C") is written as a
// literal identifier in backticks: any non-empty run of characters other
// than '`', '.' and line breaks.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", l.line, l.col, fmt.Sprintf(format, args...))
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
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == ';':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance()
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || unicode.IsLetter(rune(c))
}

func isIdentCont(c byte) bool {
	return c == '_' || c == '$' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return token{kind: tEOF, line: line, col: col}, nil
	}
	c := l.src[l.pos]
	mk := func(k tokKind, text string) token {
		return token{kind: k, text: text, line: line, col: col}
	}
	switch {
	case isIdentStart(c):
		var sb strings.Builder
		for l.pos < len(l.src) && isIdentCont(l.src[l.pos]) {
			sb.WriteByte(l.advance())
		}
		return mk(tIdent, sb.String()), nil
	case c == '`':
		l.advance()
		start := l.pos
		for l.pos < len(l.src) && !strings.ContainsRune("`.\r\n", rune(l.src[l.pos])) {
			l.advance()
		}
		if l.pos == start || l.pos >= len(l.src) || l.src[l.pos] != '`' {
			return token{}, l.errf("unterminated or empty literal identifier")
		}
		text := l.src[start:l.pos]
		l.advance()
		return mk(tIdent, text), nil
	case unicode.IsDigit(rune(c)) || (c == '-' && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1]))):
		var sb strings.Builder
		if c == '-' {
			sb.WriteByte(l.advance())
		}
		for l.pos < len(l.src) && unicode.IsDigit(rune(l.src[l.pos])) {
			sb.WriteByte(l.advance())
		}
		return mk(tInt, sb.String()), nil
	}
	l.advance()
	switch c {
	case '{':
		return mk(tLBrace, "{"), nil
	case '}':
		return mk(tRBrace, "}"), nil
	case '(':
		return mk(tLParen, "("), nil
	case ')':
		return mk(tRParen, ")"), nil
	case '[':
		return mk(tLBrack, "["), nil
	case ']':
		return mk(tRBrack, "]"), nil
	case '>':
		return mk(tRAngle, ">"), nil
	case ',':
		return mk(tComma, ","), nil
	case ':':
		return mk(tColon, ":"), nil
	case '.':
		return mk(tDot, "."), nil
	case '=':
		return mk(tEquals, "="), nil
	case '<':
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.advance()
			return mk(tArrow, "<="), nil
		}
		return mk(tLAngle, "<"), nil
	}
	return token{}, l.errf("unexpected character %q", c)
}
