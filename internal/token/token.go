// Package token defines the lexical tokens of the MiniC language, the small
// C-like language that carries the COMMSET pragma extensions in this
// reproduction.
//
// MiniC deliberately mirrors the subset of C that the paper's benchmarks
// exercise: scalar types, functions, structured control flow, compound
// statements, and calls into a library substrate. COMMSET directives arrive
// as `#pragma commset ...` lines, which the lexer surfaces as PRAGMA tokens
// whose payload is parsed by package pragma.
package token

import "fmt"

// Kind enumerates every token kind produced by the lexer.
type Kind int

// Token kinds.
const (
	ILLEGAL Kind = iota
	EOF
	COMMENT // retained only when the lexer is configured to keep comments
	PRAGMA  // one full `#pragma ...` line; literal value is the pragma body

	// Literals and identifiers.
	IDENT  // main, x, fopen
	INT    // 12345
	FLOAT  // 123.45
	STRING // "abc"
	CHAR   // 'a' (lexed as an INT with the rune's value; kind kept for errors)

	// Operators and delimiters.
	ADD // +
	SUB // -
	MUL // *
	QUO // /
	REM // %

	AND  // &&
	OR   // ||
	NOT  // !
	BAND // &
	BOR  // |
	BXOR // ^
	SHL  // <<
	SHR  // >>

	EQL // ==
	NEQ // !=
	LSS // <
	GTR // >
	LEQ // <=
	GEQ // >=

	ASSIGN    // =
	ADDASSIGN // +=
	SUBASSIGN // -=
	MULASSIGN // *=
	QUOASSIGN // /=
	REMASSIGN // %=
	INC       // ++
	DEC       // --

	LPAREN    // (
	RPAREN    // )
	LBRACE    // {
	RBRACE    // }
	LBRACKET  // [
	RBRACKET  // ]
	COMMA     // ,
	SEMICOLON // ;
	COLON     // :
	DOT       // .
	QUESTION  // ?

	// Keywords.
	KwInt
	KwFloat
	KwBool
	KwString
	KwVoid
	KwIf
	KwElse
	KwWhile
	KwFor
	KwReturn
	KwBreak
	KwContinue
	KwTrue
	KwFalse

	numKinds
)

var kindNames = [...]string{
	ILLEGAL: "ILLEGAL",
	EOF:     "EOF",
	COMMENT: "COMMENT",
	PRAGMA:  "PRAGMA",

	IDENT:  "IDENT",
	INT:    "INT",
	FLOAT:  "FLOAT",
	STRING: "STRING",
	CHAR:   "CHAR",

	ADD:  "+",
	SUB:  "-",
	MUL:  "*",
	QUO:  "/",
	REM:  "%",
	AND:  "&&",
	OR:   "||",
	NOT:  "!",
	BAND: "&",
	BOR:  "|",
	BXOR: "^",
	SHL:  "<<",
	SHR:  ">>",

	EQL: "==",
	NEQ: "!=",
	LSS: "<",
	GTR: ">",
	LEQ: "<=",
	GEQ: ">=",

	ASSIGN:    "=",
	ADDASSIGN: "+=",
	SUBASSIGN: "-=",
	MULASSIGN: "*=",
	QUOASSIGN: "/=",
	REMASSIGN: "%=",
	INC:       "++",
	DEC:       "--",

	LPAREN:    "(",
	RPAREN:    ")",
	LBRACE:    "{",
	RBRACE:    "}",
	LBRACKET:  "[",
	RBRACKET:  "]",
	COMMA:     ",",
	SEMICOLON: ";",
	COLON:     ":",
	DOT:       ".",
	QUESTION:  "?",

	KwInt:      "int",
	KwFloat:    "float",
	KwBool:     "bool",
	KwString:   "string",
	KwVoid:     "void",
	KwIf:       "if",
	KwElse:     "else",
	KwWhile:    "while",
	KwFor:      "for",
	KwReturn:   "return",
	KwBreak:    "break",
	KwContinue: "continue",
	KwTrue:     "true",
	KwFalse:    "false",
}

// String returns the canonical spelling for operator/keyword kinds and the
// kind name for the rest.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// keywords maps identifier spellings to keyword kinds.
var keywords = map[string]Kind{
	"int":      KwInt,
	"float":    KwFloat,
	"bool":     KwBool,
	"string":   KwString,
	"void":     KwVoid,
	"if":       KwIf,
	"else":     KwElse,
	"while":    KwWhile,
	"for":      KwFor,
	"return":   KwReturn,
	"break":    KwBreak,
	"continue": KwContinue,
	"true":     KwTrue,
	"false":    KwFalse,
}

// Lookup classifies an identifier spelling as a keyword or IDENT.
func Lookup(ident string) Kind {
	if k, ok := keywords[ident]; ok {
		return k
	}
	return IDENT
}

// IsTypeKeyword reports whether k begins a type (and therefore a declaration).
func (k Kind) IsTypeKeyword() bool {
	switch k {
	case KwInt, KwFloat, KwBool, KwString, KwVoid:
		return true
	}
	return false
}

// Precedence returns the binary-operator precedence of k, following C.
// Non-operators return 0 (lowest).
func (k Kind) Precedence() int {
	switch k {
	case OR:
		return 1
	case AND:
		return 2
	case BOR:
		return 3
	case BXOR:
		return 4
	case BAND:
		return 5
	case EQL, NEQ:
		return 6
	case LSS, LEQ, GTR, GEQ:
		return 7
	case SHL, SHR:
		return 8
	case ADD, SUB:
		return 9
	case MUL, QUO, REM:
		return 10
	}
	return 0
}
