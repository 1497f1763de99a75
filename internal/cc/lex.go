// Package cc implements a mini-C compiler targeting RV32IM assembly. It
// replaces the GCC cross-toolchain of the paper for building guest
// software: the runtime library, the peripheral software models, the
// benchmark programs and the mini-RTOS + TCP/IP stack are all written in
// this dialect and compiled to RISC-V machine code via internal/asm.
//
// The dialect is a practical C subset: void/char/short/int (signed and
// unsigned, plus the <stdint.h> fixed-width names), pointers, 1-D arrays,
// structs, typedefs, function pointers, all the usual operators including
// compound assignment and ternary, if/else, while, do-while, for, switch,
// break/continue/return, string literals, sizeof, casts, global
// initializers, an object-like #define / #ifdef preprocessor, and
// asm("...") pass-through statements. Notable deliberate deviations:
// plain char is unsigned, and at most 8 parameters are passed (all in
// registers).
package cc

import (
	"fmt"
	"strconv"
	"strings"
)

type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tNum
	tStr
	tPunct
)

type token struct {
	kind tokKind
	s    string // identifier, punctuation, or raw string contents
	n    int64  // numeric value
	line int
}

func (t token) String() string {
	switch t.kind {
	case tEOF:
		return "<eof>"
	case tNum:
		return fmt.Sprint(t.n)
	case tStr:
		return strconv.Quote(t.s)
	default:
		return t.s
	}
}

// Error is a compile error with a source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("cc: line %d: %s", e.Line, e.Msg) }

var punctuators = []string{
	// Longest first.
	"<<=", ">>=", "...",
	"==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "++", "--",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "->",
	"+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
	"(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":",
}

type lexer struct {
	src    string
	pos    int
	line   int
	macros map[string][]token
	toks   []token
}

// lex runs the preprocessor and tokenizer over src.
func lex(src string) ([]token, error) {
	l := &lexer{macros: map[string][]token{}}
	lines := strings.Split(src, "\n")

	// Conditional-compilation state: a stack of "emitting" flags.
	type condState struct {
		emitting bool
		taken    bool // some branch of this #if chain already emitted
	}
	var conds []condState
	emitting := func() bool {
		for _, c := range conds {
			if !c.emitting {
				return false
			}
		}
		return true
	}

	inBlockComment := false
	for i, raw := range lines {
		lineNo := i + 1
		line := raw
		if inBlockComment {
			if end := strings.Index(line, "*/"); end >= 0 {
				line = line[end+2:]
				inBlockComment = false
			} else {
				continue
			}
		}
		// Strip comments (block comments spanning lines handled above).
		line = stripLineComments(line, &inBlockComment)
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "#") {
			directive := strings.TrimSpace(trimmed[1:])
			switch {
			case strings.HasPrefix(directive, "define"):
				if !emitting() {
					continue
				}
				rest := strings.TrimSpace(directive[len("define"):])
				sp := strings.IndexAny(rest, " \t(")
				var name, body string
				if sp < 0 {
					name, body = rest, ""
				} else if rest[sp] == '(' {
					return nil, &Error{lineNo, "function-like macros are not supported"}
				} else {
					name, body = rest[:sp], strings.TrimSpace(rest[sp:])
				}
				if name == "" {
					return nil, &Error{lineNo, "empty #define"}
				}
				bodyToks, err := l.tokenizeLine(body, lineNo)
				if err != nil {
					return nil, err
				}
				l.macros[name] = bodyToks
			case strings.HasPrefix(directive, "undef"):
				if emitting() {
					delete(l.macros, strings.TrimSpace(directive[len("undef"):]))
				}
			case strings.HasPrefix(directive, "ifdef"):
				name := strings.TrimSpace(directive[len("ifdef"):])
				_, def := l.macros[name]
				conds = append(conds, condState{emitting: def, taken: def})
			case strings.HasPrefix(directive, "ifndef"):
				name := strings.TrimSpace(directive[len("ifndef"):])
				_, def := l.macros[name]
				conds = append(conds, condState{emitting: !def, taken: !def})
			case strings.HasPrefix(directive, "else"):
				if len(conds) == 0 {
					return nil, &Error{lineNo, "#else without #if"}
				}
				top := &conds[len(conds)-1]
				top.emitting = !top.taken
				top.taken = true
			case strings.HasPrefix(directive, "endif"):
				if len(conds) == 0 {
					return nil, &Error{lineNo, "#endif without #if"}
				}
				conds = conds[:len(conds)-1]
			case strings.HasPrefix(directive, "include"):
				// The guest build system concatenates translation units;
				// includes are accepted and ignored.
			case strings.HasPrefix(directive, "pragma"):
				// Ignored.
			default:
				return nil, &Error{lineNo, fmt.Sprintf("unsupported preprocessor directive %q", directive)}
			}
			continue
		}
		if !emitting() {
			continue
		}
		toks, err := l.tokenizeLine(line, lineNo)
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, toks...)
	}
	if len(conds) != 0 {
		return nil, &Error{len(lines), "unterminated #if block"}
	}
	l.toks = append(l.toks, token{kind: tEOF, line: len(lines)})
	return l.toks, nil
}

func stripLineComments(line string, inBlock *bool) string {
	var out strings.Builder
	i := 0
	inStr, inChr := false, false
	for i < len(line) {
		c := line[i]
		switch {
		case inStr:
			out.WriteByte(c)
			if c == '\\' && i+1 < len(line) {
				out.WriteByte(line[i+1])
				i++
			} else if c == '"' {
				inStr = false
			}
			i++
		case inChr:
			out.WriteByte(c)
			if c == '\\' && i+1 < len(line) {
				out.WriteByte(line[i+1])
				i++
			} else if c == '\'' {
				inChr = false
			}
			i++
		case c == '"':
			inStr = true
			out.WriteByte(c)
			i++
		case c == '\'':
			inChr = true
			out.WriteByte(c)
			i++
		case c == '/' && i+1 < len(line) && line[i+1] == '/':
			return out.String()
		case c == '/' && i+1 < len(line) && line[i+1] == '*':
			if end := strings.Index(line[i+2:], "*/"); end >= 0 {
				out.WriteByte(' ')
				i += 2 + end + 2
			} else {
				*inBlock = true
				return out.String()
			}
		default:
			out.WriteByte(c)
			i++
		}
	}
	return out.String()
}

// tokenizeLine tokenizes one line, applying macro substitution.
func (l *lexer) tokenizeLine(line string, lineNo int) ([]token, error) {
	var out []token
	i := 0
	for i < len(line) {
		c := line[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			j := i
			for j < len(line) && isIdentChar(line[j]) {
				j++
			}
			name := line[i:j]
			i = j
			if body, ok := l.macros[name]; ok {
				// Object-like macro: splice the body (no recursion guard
				// needed for our macro usage, but cap depth defensively).
				out = append(out, body...)
			} else {
				out = append(out, token{kind: tIdent, s: name, line: lineNo})
			}
		case c >= '0' && c <= '9':
			j := i
			for j < len(line) && (isIdentChar(line[j])) {
				j++
			}
			text := line[i:j]
			i = j
			// Strip C integer suffixes.
			for len(text) > 0 {
				last := text[len(text)-1]
				if last == 'u' || last == 'U' || last == 'l' || last == 'L' {
					text = text[:len(text)-1]
				} else {
					break
				}
			}
			v, err := strconv.ParseUint(text, 0, 64)
			if err != nil {
				return nil, &Error{lineNo, fmt.Sprintf("bad number %q", line[i:])}
			}
			out = append(out, token{kind: tNum, n: int64(v), line: lineNo})
		case c == '"':
			j := i + 1
			var sb strings.Builder
			for j < len(line) && line[j] != '"' {
				if line[j] == '\\' && j+1 < len(line) {
					e, err := unescape(line[j+1])
					if err != nil {
						return nil, &Error{lineNo, err.Error()}
					}
					sb.WriteByte(e)
					j += 2
				} else {
					sb.WriteByte(line[j])
					j++
				}
			}
			if j >= len(line) {
				return nil, &Error{lineNo, "unterminated string literal"}
			}
			out = append(out, token{kind: tStr, s: sb.String(), line: lineNo})
			i = j + 1
		case c == '\'':
			j := i + 1
			var v byte
			if j < len(line) && line[j] == '\\' {
				if j+1 >= len(line) {
					return nil, &Error{lineNo, "unterminated char literal"}
				}
				e, err := unescape(line[j+1])
				if err != nil {
					return nil, &Error{lineNo, err.Error()}
				}
				v = e
				j += 2
			} else if j < len(line) {
				v = line[j]
				j++
			}
			if j >= len(line) || line[j] != '\'' {
				return nil, &Error{lineNo, "unterminated char literal"}
			}
			out = append(out, token{kind: tNum, n: int64(v), line: lineNo})
			i = j + 1
		default:
			matched := false
			for _, p := range punctuators {
				if strings.HasPrefix(line[i:], p) {
					out = append(out, token{kind: tPunct, s: p, line: lineNo})
					i += len(p)
					matched = true
					break
				}
			}
			if !matched {
				return nil, &Error{lineNo, fmt.Sprintf("unexpected character %q", c)}
			}
		}
	}
	return out, nil
}

func isIdentChar(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func unescape(c byte) (byte, error) {
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\':
		return '\\', nil
	case '\'':
		return '\'', nil
	case '"':
		return '"', nil
	}
	return 0, fmt.Errorf("unsupported escape \\%c", c)
}
