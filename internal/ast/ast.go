// Package ast defines the abstract syntax tree for MiniC, the C-like input
// language of the COMMSET compiler.
//
// Pragmas are attached where the paper attaches them: COMMSET global
// declarations (COMMSETDECL, COMMSETPREDICATE, COMMSETNOSYNC) at file scope,
// instance declarations (COMMSET member lists, COMMSETNAMEDARGADD) on
// statements, COMMSETNAMEDBLOCK on compound statements, and COMMSETNAMEDARG
// on function declarations. The AST stores each pragma's raw text plus its
// parsed directive (an `any` holding a pragma.Directive, kept untyped here to
// avoid an import cycle).
package ast

import (
	"repro/internal/source"
	"repro/internal/token"
)

// Type is a MiniC scalar type.
type Type int

// MiniC types. THandle values are opaque references to substrate objects
// (files, matrices, bitmaps, ...) and are represented as ints at run time;
// the front end treats them as int, so only the base four plus void exist
// syntactically.
const (
	TInvalid Type = iota
	TVoid
	TInt
	TFloat
	TBool
	TString
)

// String names the type as written in source.
func (t Type) String() string {
	switch t {
	case TVoid:
		return "void"
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TBool:
		return "bool"
	case TString:
		return "string"
	}
	return "invalid"
}

// Node is implemented by every AST node.
type Node interface {
	Pos() source.Pos
}

// Pragma is one `#pragma commset ...` line together with its parsed
// directive. Dir holds a pragma.Directive; it is `any` here so that the ast
// package does not depend on the pragma package.
type Pragma struct {
	PragmaPos source.Pos
	Text      string // body after "#pragma"
	Dir       any    // pragma.Directive, filled by the parser
}

// Pos returns the pragma's source position.
func (p *Pragma) Pos() source.Pos { return p.PragmaPos }

// PragmaHost is embedded by every node that can carry pragmas.
type PragmaHost struct {
	Pragmas []*Pragma
}

// HasPragmas reports whether any pragma is attached.
func (h *PragmaHost) HasPragmas() bool { return len(h.Pragmas) > 0 }

// Program is a parsed translation unit.
type Program struct {
	File    *source.File
	Globals []*VarDecl  // file-scope variables
	Funcs   []*FuncDecl // function declarations, in source order
	Pragmas []*Pragma   // file-scope COMMSET declarations
}

// FindFunc returns the function with the given name, or nil.
func (p *Program) FindFunc(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Param is a function parameter.
type Param struct {
	Name     string
	Type     Type
	ParamPos source.Pos
}

// Pos returns the parameter's position.
func (p *Param) Pos() source.Pos { return p.ParamPos }

// FuncDecl is a function definition. Pragmas attached here are COMMSET
// instance declarations on the interface (function-level membership) and
// COMMSETNAMEDARG exports.
type FuncDecl struct {
	PragmaHost
	NamePos source.Pos
	Name    string
	Params  []*Param
	Result  Type
	Body    *BlockStmt
}

// Pos returns the position of the function name.
func (f *FuncDecl) Pos() source.Pos { return f.NamePos }

// VarDecl is a variable declaration, at file scope or as a statement.
type VarDecl struct {
	PragmaHost
	NamePos source.Pos
	Name    string
	Type    Type
	Init    Expr // may be nil
}

// Pos returns the position of the declared name.
func (d *VarDecl) Pos() source.Pos { return d.NamePos }

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	Host() *PragmaHost
	stmtNode()
}

// Expr is implemented by all expression nodes.
type Expr interface {
	Node
	exprNode()
}

// --- Statements ---

// DeclStmt wraps a VarDecl in statement position.
type DeclStmt struct {
	Decl *VarDecl
}

// AssignStmt assigns RHS to the named variable with one of the assignment
// operators (=, +=, -=, *=, /=, %=).
type AssignStmt struct {
	PragmaHost
	LhsPos source.Pos
	Lhs    string
	Op     token.Kind
	Rhs    Expr
}

// IncDecStmt is `x++` or `x--` in statement position.
type IncDecStmt struct {
	PragmaHost
	NamePos source.Pos
	Name    string
	Op      token.Kind // token.INC or token.DEC
}

// ExprStmt evaluates an expression for its effects (usually a call).
type ExprStmt struct {
	PragmaHost
	X Expr
}

// IfStmt is `if (cond) then [else els]`.
type IfStmt struct {
	PragmaHost
	IfPos source.Pos
	Cond  Expr
	Then  Stmt
	Else  Stmt // may be nil
}

// WhileStmt is `while (cond) body`.
type WhileStmt struct {
	PragmaHost
	WhilePos source.Pos
	Cond     Expr
	Body     Stmt
}

// ForStmt is `for (init; cond; post) body`; each header part may be nil.
type ForStmt struct {
	PragmaHost
	ForPos source.Pos
	Init   Stmt // DeclStmt, AssignStmt or IncDecStmt; may be nil
	Cond   Expr // may be nil (treated as true)
	Post   Stmt // AssignStmt or IncDecStmt; may be nil
	Body   Stmt
}

// ReturnStmt is `return [expr];`.
type ReturnStmt struct {
	PragmaHost
	RetPos source.Pos
	X      Expr // may be nil
}

// BreakStmt is `break;`.
type BreakStmt struct {
	PragmaHost
	KwPos source.Pos
}

// ContinueStmt is `continue;`.
type ContinueStmt struct {
	PragmaHost
	KwPos source.Pos
}

// BlockStmt is a compound statement `{ ... }`. COMMSET member pragmas and
// COMMSETNAMEDBLOCK attach here, making the block a commutative region.
type BlockStmt struct {
	PragmaHost
	LbracePos source.Pos
	Stmts     []Stmt
}

// EmptyStmt is a lone `;`.
type EmptyStmt struct {
	PragmaHost
	SemiPos source.Pos
}

func (s *DeclStmt) Pos() source.Pos     { return s.Decl.Pos() }
func (s *AssignStmt) Pos() source.Pos   { return s.LhsPos }
func (s *IncDecStmt) Pos() source.Pos   { return s.NamePos }
func (s *ExprStmt) Pos() source.Pos     { return s.X.Pos() }
func (s *IfStmt) Pos() source.Pos       { return s.IfPos }
func (s *WhileStmt) Pos() source.Pos    { return s.WhilePos }
func (s *ForStmt) Pos() source.Pos      { return s.ForPos }
func (s *ReturnStmt) Pos() source.Pos   { return s.RetPos }
func (s *BreakStmt) Pos() source.Pos    { return s.KwPos }
func (s *ContinueStmt) Pos() source.Pos { return s.KwPos }
func (s *BlockStmt) Pos() source.Pos    { return s.LbracePos }
func (s *EmptyStmt) Pos() source.Pos    { return s.SemiPos }

func (s *DeclStmt) Host() *PragmaHost     { return &s.Decl.PragmaHost }
func (s *AssignStmt) Host() *PragmaHost   { return &s.PragmaHost }
func (s *IncDecStmt) Host() *PragmaHost   { return &s.PragmaHost }
func (s *ExprStmt) Host() *PragmaHost     { return &s.PragmaHost }
func (s *IfStmt) Host() *PragmaHost       { return &s.PragmaHost }
func (s *WhileStmt) Host() *PragmaHost    { return &s.PragmaHost }
func (s *ForStmt) Host() *PragmaHost      { return &s.PragmaHost }
func (s *ReturnStmt) Host() *PragmaHost   { return &s.PragmaHost }
func (s *BreakStmt) Host() *PragmaHost    { return &s.PragmaHost }
func (s *ContinueStmt) Host() *PragmaHost { return &s.PragmaHost }
func (s *BlockStmt) Host() *PragmaHost    { return &s.PragmaHost }
func (s *EmptyStmt) Host() *PragmaHost    { return &s.PragmaHost }

func (*DeclStmt) stmtNode()     {}
func (*AssignStmt) stmtNode()   {}
func (*IncDecStmt) stmtNode()   {}
func (*ExprStmt) stmtNode()     {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*ForStmt) stmtNode()      {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*BlockStmt) stmtNode()    {}
func (*EmptyStmt) stmtNode()    {}

// --- Expressions ---

// IntLit is an integer literal.
type IntLit struct {
	LitPos source.Pos
	Value  int64
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	LitPos source.Pos
	Value  float64
}

// StringLit is a string literal (already unescaped).
type StringLit struct {
	LitPos source.Pos
	Value  string
}

// BoolLit is `true` or `false`.
type BoolLit struct {
	LitPos source.Pos
	Value  bool
}

// Ident is a variable reference.
type Ident struct {
	NamePos source.Pos
	Name    string
}

// CallExpr calls a user function or a builtin by name.
type CallExpr struct {
	NamePos source.Pos
	Fun     string
	Args    []Expr
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	// StartPos is the position of the leftmost operand, which Pos
	// reports; the parser records it so a chain of n operators does not
	// cost O(n) per position lookup.
	StartPos source.Pos
	OpPos    source.Pos
	Op       token.Kind
	X, Y     Expr
}

// UnaryExpr applies a unary operator (!, -).
type UnaryExpr struct {
	OpPos source.Pos
	Op    token.Kind
	X     Expr
}

// CondExpr is the ternary `cond ? then : else`.
type CondExpr struct {
	QPos source.Pos
	Cond Expr
	Then Expr
	Else Expr
}

func (e *IntLit) Pos() source.Pos     { return e.LitPos }
func (e *FloatLit) Pos() source.Pos   { return e.LitPos }
func (e *StringLit) Pos() source.Pos  { return e.LitPos }
func (e *BoolLit) Pos() source.Pos    { return e.LitPos }
func (e *Ident) Pos() source.Pos      { return e.NamePos }
func (e *CallExpr) Pos() source.Pos   { return e.NamePos }
func (e *BinaryExpr) Pos() source.Pos { return e.StartPos }
func (e *UnaryExpr) Pos() source.Pos  { return e.OpPos }
func (e *CondExpr) Pos() source.Pos   { return e.Cond.Pos() }

func (*IntLit) exprNode()     {}
func (*FloatLit) exprNode()   {}
func (*StringLit) exprNode()  {}
func (*BoolLit) exprNode()    {}
func (*Ident) exprNode()      {}
func (*CallExpr) exprNode()   {}
func (*BinaryExpr) exprNode() {}
func (*UnaryExpr) exprNode()  {}
func (*CondExpr) exprNode()   {}
