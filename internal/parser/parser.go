// Package parser builds the MiniC AST from a token stream.
//
// It is a conventional recursive-descent parser with precedence climbing for
// expressions. PRAGMA tokens are collected and attached to the next
// declaration or statement, following the paper's placement rules: global
// COMMSET declarations before any declaration at file scope, instance
// declarations before a compound statement or function, and
// COMMSETNAMEDARGADD before the client statement containing the call.
package parser

import (
	"strconv"

	"repro/internal/ast"
	"repro/internal/lexer"
	"repro/internal/pragma"
	"repro/internal/source"
	"repro/internal/token"
)

// Parse lexes and parses the file, reporting problems into diags. The
// returned Program is non-nil even when diagnostics contain errors, so tools
// can still inspect a partial AST.
func Parse(file *source.File, diags *source.DiagList) *ast.Program {
	p := &parser{
		file:  file,
		toks:  lexer.ScanAll(file, diags),
		diags: diags,
	}
	return p.parseProgram()
}

// ParseSource is a convenience wrapper: it parses the given text and returns
// the program or the first error.
func ParseSource(name, text string) (*ast.Program, error) {
	var diags source.DiagList
	prog := Parse(source.NewFile(name, text), &diags)
	if err := diags.Err(); err != nil {
		return prog, err
	}
	return prog, nil
}

// ParseExprString parses a standalone MiniC expression, as used by
// COMMSETPREDICATE bodies. pos anchors diagnostics at the pragma's location.
func ParseExprString(text string, diags *source.DiagList) (ast.Expr, error) {
	f := source.NewFile("<predicate>", text)
	var local source.DiagList
	p := &parser{file: f, toks: lexer.ScanAll(f, &local), diags: &local}
	e := p.parseExpr()
	p.expect(token.EOF, "end of predicate expression")
	if err := local.Err(); err != nil {
		return nil, err
	}
	return e, nil
}

// MaxNesting bounds how deep statements nest, and separately how deep
// expressions nest: the parser and the passes after it recurse once per
// level, so an unbounded depth would exhaust the host stack. It matches the
// interpreter's call-depth bound.
const MaxNesting = 10000

type parser struct {
	file  *source.File
	toks  []lexer.Token
	pos   int
	diags *source.DiagList

	pending []*ast.Pragma // pragmas awaiting attachment

	// stmtDepth and exprDepth count the open nesting levels (see enter).
	stmtDepth, exprDepth int
	// abandoned is set once nesting exceeds MaxNesting: the rest of the
	// input is skipped and no further error is reported.
	abandoned bool
}

func (p *parser) cur() lexer.Token { return p.toks[p.pos] }
func (p *parser) peek() lexer.Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) advance() lexer.Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) errorf(pos source.Pos, format string, args ...any) {
	if p.abandoned {
		return
	}
	p.diags.Errorf(p.file.Name, pos, format, args...)
}

// enter opens one nesting level counted by depth at token t; the caller
// decrements depth when the level closes. Past MaxNesting it reports an
// error at t instead and abandons the input: the parser jumps to EOF, where
// every open construct ends.
func (p *parser) enter(depth *int, t lexer.Token) bool {
	if *depth < MaxNesting {
		*depth++
		return true
	}
	p.errorf(t.Pos, "nesting deeper than %d levels", MaxNesting)
	p.abandoned = true
	p.pos = len(p.toks) - 1
	return false
}

func (p *parser) expect(k token.Kind, what string) lexer.Token {
	if p.at(k) {
		return p.advance()
	}
	t := p.cur()
	p.errorf(t.Pos, "expected %s, found %s", what, t)
	return lexer.Token{Kind: k, Pos: t.Pos}
}

// collectPragmas consumes consecutive PRAGMA tokens into the pending list.
func (p *parser) collectPragmas() {
	for p.at(token.PRAGMA) {
		t := p.advance()
		pr := &ast.Pragma{PragmaPos: t.Pos, Text: t.Lit}
		dir, err := pragma.Parse(t.Lit)
		if err != nil {
			p.errorf(t.Pos, "%v", err)
			continue
		}
		if dir == nil {
			continue // foreign pragma: ignored, like a standard compiler
		}
		pr.Dir = dir
		p.pending = append(p.pending, pr)
	}
}

// takePending transfers pending pragmas to a host.
func (p *parser) takePending(h *ast.PragmaHost) {
	if len(p.pending) > 0 {
		h.Pragmas = append(h.Pragmas, p.pending...)
		p.pending = nil
	}
}

// globalPragmaKinds are directives that live at file scope.
func isGlobalDir(d any) bool {
	switch d.(pragma.Directive).Kind() {
	case pragma.KindDecl, pragma.KindPredicate, pragma.KindNoSync:
		return true
	}
	return false
}

func (p *parser) parseProgram() *ast.Program {
	prog := &ast.Program{File: p.file}
	for {
		p.collectPragmas()
		// File-scope COMMSET declarations attach to the program, not to the
		// following function; filter them out of pending.
		var rest []*ast.Pragma
		for _, pr := range p.pending {
			if pr.Dir != nil && isGlobalDir(pr.Dir) {
				prog.Pragmas = append(prog.Pragmas, pr)
			} else {
				rest = append(rest, pr)
			}
		}
		p.pending = rest

		if p.at(token.EOF) {
			if len(p.pending) > 0 {
				p.errorf(p.pending[0].PragmaPos, "commset pragma is not attached to any declaration")
				p.pending = nil
			}
			return prog
		}
		if !p.cur().Kind.IsTypeKeyword() {
			t := p.advance()
			p.errorf(t.Pos, "expected declaration, found %s", t)
			continue
		}
		typ := p.parseType()
		name := p.expect(token.IDENT, "declaration name")
		if p.at(token.LPAREN) {
			prog.Funcs = append(prog.Funcs, p.parseFuncRest(typ, name))
		} else {
			prog.Globals = append(prog.Globals, p.parseGlobalRest(typ, name))
		}
	}
}

func (p *parser) parseType() ast.Type {
	t := p.advance()
	switch t.Kind {
	case token.KwInt:
		return ast.TInt
	case token.KwFloat:
		return ast.TFloat
	case token.KwBool:
		return ast.TBool
	case token.KwString:
		return ast.TString
	case token.KwVoid:
		return ast.TVoid
	}
	p.errorf(t.Pos, "expected type, found %s", t)
	return ast.TInvalid
}

func (p *parser) parseFuncRest(result ast.Type, name lexer.Token) *ast.FuncDecl {
	fn := &ast.FuncDecl{NamePos: name.Pos, Name: name.Lit, Result: result}
	p.takePending(&fn.PragmaHost)
	p.expect(token.LPAREN, "'('")
	if !p.at(token.RPAREN) {
		for {
			pt := p.parseType()
			if pt == ast.TVoid {
				p.errorf(p.cur().Pos, "void is not a valid parameter type")
			}
			pn := p.expect(token.IDENT, "parameter name")
			fn.Params = append(fn.Params, &ast.Param{Name: pn.Lit, Type: pt, ParamPos: pn.Pos})
			if !p.accept(token.COMMA) {
				break
			}
		}
	}
	p.expect(token.RPAREN, "')'")
	fn.Body = p.parseBlock()
	return fn
}

func (p *parser) parseGlobalRest(typ ast.Type, name lexer.Token) *ast.VarDecl {
	d := &ast.VarDecl{NamePos: name.Pos, Name: name.Lit, Type: typ}
	if typ == ast.TVoid {
		p.errorf(name.Pos, "variable %s cannot have type void", name.Lit)
	}
	p.takePending(&d.PragmaHost)
	if p.accept(token.ASSIGN) {
		d.Init = p.parseExpr()
	}
	p.expect(token.SEMICOLON, "';' after global declaration")
	return d
}

func (p *parser) parseBlock() *ast.BlockStmt {
	lb := p.expect(token.LBRACE, "'{'")
	b := &ast.BlockStmt{LbracePos: lb.Pos}
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		b.Stmts = append(b.Stmts, p.parseStmt())
	}
	p.expect(token.RBRACE, "'}'")
	return b
}

// parseStmt parses one statement, attaching any pending pragmas to it.
// The pending list is captured before descending so that pragmas preceding a
// compound statement attach to the compound statement itself, not to its
// first inner statement.
func (p *parser) parseStmt() ast.Stmt {
	p.collectPragmas()
	mine := p.pending
	p.pending = nil
	if t := p.cur(); !p.enter(&p.stmtDepth, t) {
		return &ast.EmptyStmt{SemiPos: t.Pos}
	}
	s := p.parseStmtNoPragma()
	p.stmtDepth--
	if len(mine) > 0 {
		h := s.Host()
		h.Pragmas = append(h.Pragmas, mine...)
	}
	return s
}

func (p *parser) parseStmtNoPragma() ast.Stmt {
	t := p.cur()
	switch {
	case t.Kind.IsTypeKeyword():
		return p.parseDeclStmt()
	case t.Kind == token.LBRACE:
		return p.parseBlock()
	case t.Kind == token.KwIf:
		return p.parseIf()
	case t.Kind == token.KwWhile:
		return p.parseWhile()
	case t.Kind == token.KwFor:
		return p.parseFor()
	case t.Kind == token.KwReturn:
		p.advance()
		r := &ast.ReturnStmt{RetPos: t.Pos}
		if !p.at(token.SEMICOLON) {
			r.X = p.parseExpr()
		}
		p.expect(token.SEMICOLON, "';' after return")
		return r
	case t.Kind == token.KwBreak:
		p.advance()
		p.expect(token.SEMICOLON, "';' after break")
		return &ast.BreakStmt{KwPos: t.Pos}
	case t.Kind == token.KwContinue:
		p.advance()
		p.expect(token.SEMICOLON, "';' after continue")
		return &ast.ContinueStmt{KwPos: t.Pos}
	case t.Kind == token.SEMICOLON:
		p.advance()
		return &ast.EmptyStmt{SemiPos: t.Pos}
	}
	s := p.parseSimpleStmt()
	p.expect(token.SEMICOLON, "';' after statement")
	return s
}

// parseSimpleStmt parses an assignment, inc/dec, or expression statement
// (no trailing semicolon), as used in statement position and for headers.
func (p *parser) parseSimpleStmt() ast.Stmt {
	t := p.cur()
	if t.Kind == token.IDENT {
		switch p.peek().Kind {
		case token.ASSIGN, token.ADDASSIGN, token.SUBASSIGN, token.MULASSIGN, token.QUOASSIGN, token.REMASSIGN:
			p.advance()
			op := p.advance()
			rhs := p.parseExpr()
			return &ast.AssignStmt{LhsPos: t.Pos, Lhs: t.Lit, Op: op.Kind, Rhs: rhs}
		case token.INC, token.DEC:
			p.advance()
			op := p.advance()
			return &ast.IncDecStmt{NamePos: t.Pos, Name: t.Lit, Op: op.Kind}
		}
	}
	x := p.parseExpr()
	return &ast.ExprStmt{X: x}
}

func (p *parser) parseDeclStmt() ast.Stmt {
	typ := p.parseType()
	name := p.expect(token.IDENT, "variable name")
	d := &ast.VarDecl{NamePos: name.Pos, Name: name.Lit, Type: typ}
	if typ == ast.TVoid {
		p.errorf(name.Pos, "variable %s cannot have type void", name.Lit)
	}
	if p.accept(token.ASSIGN) {
		d.Init = p.parseExpr()
	}
	p.expect(token.SEMICOLON, "';' after declaration")
	return &ast.DeclStmt{Decl: d}
}

func (p *parser) parseIf() ast.Stmt {
	kw := p.advance()
	p.expect(token.LPAREN, "'(' after if")
	cond := p.parseExpr()
	p.expect(token.RPAREN, "')'")
	s := &ast.IfStmt{IfPos: kw.Pos, Cond: cond}
	s.Then = p.parseStmt()
	if p.accept(token.KwElse) {
		s.Else = p.parseStmt()
	}
	return s
}

func (p *parser) parseWhile() ast.Stmt {
	kw := p.advance()
	p.expect(token.LPAREN, "'(' after while")
	cond := p.parseExpr()
	p.expect(token.RPAREN, "')'")
	return &ast.WhileStmt{WhilePos: kw.Pos, Cond: cond, Body: p.parseStmt()}
}

func (p *parser) parseFor() ast.Stmt {
	kw := p.advance()
	p.expect(token.LPAREN, "'(' after for")
	s := &ast.ForStmt{ForPos: kw.Pos}
	if !p.at(token.SEMICOLON) {
		if p.cur().Kind.IsTypeKeyword() {
			typ := p.parseType()
			name := p.expect(token.IDENT, "variable name")
			d := &ast.VarDecl{NamePos: name.Pos, Name: name.Lit, Type: typ}
			if p.accept(token.ASSIGN) {
				d.Init = p.parseExpr()
			}
			s.Init = &ast.DeclStmt{Decl: d}
		} else {
			s.Init = p.parseSimpleStmt()
		}
	}
	p.expect(token.SEMICOLON, "';' in for header")
	if !p.at(token.SEMICOLON) {
		s.Cond = p.parseExpr()
	}
	p.expect(token.SEMICOLON, "';' in for header")
	if !p.at(token.RPAREN) {
		s.Post = p.parseSimpleStmt()
	}
	p.expect(token.RPAREN, "')'")
	s.Body = p.parseStmt()
	return s
}

// --- Expressions ---

func (p *parser) parseExpr() ast.Expr { return p.parseTernary() }

func (p *parser) parseTernary() ast.Expr {
	cond := p.parseBinary(1)
	if !p.at(token.QUESTION) {
		return cond
	}
	q := p.cur()
	if !p.enter(&p.exprDepth, q) {
		return cond
	}
	p.advance()
	then := p.parseExpr()
	p.expect(token.COLON, "':' in conditional expression")
	els := p.parseExpr()
	p.exprDepth--
	return &ast.CondExpr{QPos: q.Pos, Cond: cond, Then: then, Else: els}
}

func (p *parser) parseBinary(minPrec int) ast.Expr {
	lhs := p.parseUnary()
	start := lhs.Pos()
	for {
		op := p.cur()
		prec := op.Kind.Precedence()
		if prec < minPrec || prec == 0 {
			return lhs
		}
		p.advance()
		rhs := p.parseBinary(prec + 1)
		lhs = &ast.BinaryExpr{StartPos: start, OpPos: op.Pos, Op: op.Kind, X: lhs, Y: rhs}
	}
}

func (p *parser) parseUnary() ast.Expr {
	t := p.cur()
	switch t.Kind {
	case token.SUB, token.NOT, token.ADD:
		if !p.enter(&p.exprDepth, t) {
			return &ast.IntLit{LitPos: t.Pos}
		}
		p.advance()
		x := p.parseUnary()
		p.exprDepth--
		if t.Kind == token.ADD {
			return x
		}
		return &ast.UnaryExpr{OpPos: t.Pos, Op: t.Kind, X: x}
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() ast.Expr {
	t := p.cur()
	switch t.Kind {
	case token.INT:
		p.advance()
		v, err := strconv.ParseInt(t.Lit, 0, 64)
		if err != nil {
			p.errorf(t.Pos, "invalid integer literal %q: %v", t.Lit, err)
		}
		return &ast.IntLit{LitPos: t.Pos, Value: v}
	case token.FLOAT:
		p.advance()
		v, err := strconv.ParseFloat(t.Lit, 64)
		if err != nil {
			p.errorf(t.Pos, "invalid float literal %q: %v", t.Lit, err)
		}
		return &ast.FloatLit{LitPos: t.Pos, Value: v}
	case token.STRING:
		p.advance()
		return &ast.StringLit{LitPos: t.Pos, Value: t.Lit}
	case token.KwTrue:
		p.advance()
		return &ast.BoolLit{LitPos: t.Pos, Value: true}
	case token.KwFalse:
		p.advance()
		return &ast.BoolLit{LitPos: t.Pos, Value: false}
	case token.IDENT:
		p.advance()
		if p.at(token.LPAREN) {
			return p.parseCall(t)
		}
		return &ast.Ident{NamePos: t.Pos, Name: t.Lit}
	case token.LPAREN:
		if !p.enter(&p.exprDepth, t) {
			return &ast.IntLit{LitPos: t.Pos}
		}
		p.advance()
		e := p.parseExpr()
		p.expect(token.RPAREN, "')'")
		p.exprDepth--
		return e
	}
	p.errorf(t.Pos, "expected expression, found %s", t)
	p.advance()
	return &ast.IntLit{LitPos: t.Pos}
}

func (p *parser) parseCall(name lexer.Token) ast.Expr {
	c := &ast.CallExpr{NamePos: name.Pos, Fun: name.Lit}
	if !p.enter(&p.exprDepth, p.cur()) {
		return c
	}
	p.expect(token.LPAREN, "'('")
	if !p.at(token.RPAREN) {
		for {
			c.Args = append(c.Args, p.parseExpr())
			if !p.accept(token.COMMA) {
				break
			}
		}
	}
	p.expect(token.RPAREN, "')' after call arguments")
	p.exprDepth--
	return c
}
