package interp

import (
	"fmt"
	"sync"

	"repro/internal/ir"
	"repro/internal/vm/value"
)

// instrFn executes one straight-line instruction. One closure per
// instruction, pre-bound to its operands at compile time, so the hot loop
// has no opcode re-dispatch.
type instrFn func(t *Thread, regs, locals []value.Value) error

// segment is a maximal straight-line run charged as a single cost add.
// Segments end at call instructions (the only observation points a
// scheduler interceptor can see) and at the block terminator, so the
// thread's accumulated cost at every observation point is exactly
// CostPerInstr per executed instruction plus its callees' costs. Its ops
// are the closures of instructions tail-len(ops) .. tail-1: IDs run
// densely in block order.
type segment struct {
	cost   int64
	ops    []instrFn // a window of the function's Steps
	call   *ir.Instr // trailing OpCall, or nil for the terminator segment
	callee int       // callee index of call
	tail   int       // instruction ID of the trailing call or terminator
}

// blockCode is one compiled basic block.
type blockCode struct {
	segs []segment
	term *ir.Instr // OpBr, OpCondBr, or OpRet; cost folded into last segment
}

// Steps is one compiled function by instruction ID, for an executor that
// walks the function's instructions itself (the parallel executor steps
// main this way): the closure of each straight-line instruction and the
// callee index of each call.
type Steps struct {
	ops     []instrFn // nil at calls and terminators
	callees []int     // -1 except at calls
}

// Run executes straight-line instruction id (a Const, LoadLocal,
// StoreLocal, LoadGlobal, StoreGlobal, Bin or Un) on thread t's frame
// regs/locals exactly as the interpreter does: a global store counts in
// t.HeapWrites, a global access reaches t.Tracer, and an operator's error
// carries the instruction's position. It charges no cost.
func (s *Steps) Run(t *Thread, id int, regs, locals []value.Value) error {
	return s.ops[id](t, regs, locals)
}

// Callee returns the callee index (see Callees) of call instruction id.
func (s *Steps) Callee(id int) int { return s.callees[id] }

// fnCode is one compiled function.
type fnCode struct {
	f       *ir.Func
	blocks  []blockCode
	steps   Steps
	zero    []value.Value // frame template: typed local zeros then zero regs
	nlocals int
	pool    sync.Pool // *[]value.Value frames, len == len(zero)
}

// progCode is one compiled *ir.Program, kept in the program's code slot
// (see ir.Program.Code). Every function name and every name a call
// instruction targets gets a dense callee index, and calls dispatch by
// that index: fns holds a user function's compiled code, errs the error
// that rejected a malformed one's IR, and an Env binds its builtins to the
// remaining indices. The IR is never structurally edited after the
// pipeline returns, so the compiled form is shared read-only across every
// Env, thread and campaign cell of the program, and lives as long as it.
type progCode struct {
	callees []string       // callee index -> name
	index   map[string]int // name -> callee index
	fns     []*fnCode
	errs    []error
}

// codeOf returns the compiled form of prog, compiling it on first use.
func codeOf(prog *ir.Program) *progCode {
	return prog.Code(func(p *ir.Program) any { return compileProg(p) }).(*progCode)
}

// Callees returns prog's callee names by callee index. The slice is shared
// and must not be modified.
func Callees(prog *ir.Program) []string { return codeOf(prog).callees }

func compileProg(prog *ir.Program) *progCode {
	gslot := make(map[string]int, len(prog.Globals))
	for i, g := range prog.Globals {
		gslot[g.Name] = i
	}
	pc := &progCode{index: map[string]int{}}
	number := func(name string) {
		if _, ok := pc.index[name]; !ok {
			pc.index[name] = len(pc.callees)
			pc.callees = append(pc.callees, name)
		}
	}
	for _, name := range prog.Order { // every function, as AddFunc records it
		number(name)
	}
	funcs := pc.callees // the functions, numbered first
	// Number the callees of every call site, malformed functions' too, so
	// every segment compileFunc builds finds its callee's index.
	for _, name := range funcs {
		for _, b := range prog.Funcs[name].Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall {
					number(in.Name)
				}
			}
		}
	}
	pc.fns = make([]*fnCode, len(pc.callees))
	pc.errs = make([]error, len(pc.callees))
	for i, name := range funcs {
		pc.fns[i], pc.errs[i] = compileFunc(prog.Funcs[name], gslot, pc.index)
	}
	return pc
}

// compileFunc pre-compiles one function. Every block must be a
// straight-line run ending in its only terminator, stored at the index
// equal to its ID, with branch targets inside the function, and the
// instruction IDs must run densely in block order (see ir.Func.Renumber).
func compileFunc(f *ir.Func, gslot, callee map[string]int) (*fnCode, error) {
	if len(f.Blocks) == 0 {
		return nil, fmt.Errorf("interp: malformed IR in %s: function has no blocks", f.Name)
	}
	n := f.NumInstrs()
	fc := &fnCode{
		f:       f,
		blocks:  make([]blockCode, len(f.Blocks)),
		steps:   Steps{ops: make([]instrFn, n), callees: make([]int, n)},
		nlocals: len(f.Locals),
	}
	fc.zero = make([]value.Value, len(f.Locals)+f.NumRegs)
	for i := range f.Locals {
		fc.zero[i] = value.Zero(f.Locals[i].Type)
	}
	frameLen := len(fc.zero)
	fc.pool.New = func() any {
		b := make([]value.Value, frameLen)
		return &b
	}

	id := 0 // the ID the next instruction must carry
	for bi, blk := range f.Blocks {
		malformed := func(format string, args ...any) error {
			return fmt.Errorf("interp: malformed IR in %s b%d: %s", f.Name, blk.ID, fmt.Sprintf(format, args...))
		}
		if blk.ID != bi {
			return nil, malformed("block ID does not match its index %d", bi)
		}
		term := blk.Terminator()
		if term == nil {
			return nil, malformed("block does not end in a terminator")
		}
		for _, target := range blk.Succs() {
			if target < 0 || target >= len(f.Blocks) {
				return nil, malformed("branch to missing block b%d", target)
			}
		}
		bc := &fc.blocks[bi]
		bc.term = term
		first := id // the ID of the current segment's first instruction
		for _, in := range blk.Instrs {
			if in.ID != id {
				return nil, malformed("instruction ID %d, want %d: IDs must run densely in block order", in.ID, id)
			}
			id++
			fc.steps.callees[in.ID] = -1
			if in.IsTerminator() && in != term {
				return nil, malformed("%s before the end of the block", in.Op)
			}
			if in.Op != ir.OpCall && in != term {
				fn, err := compileOp(in, gslot)
				if err != nil {
					return nil, malformed("%v", err)
				}
				fc.steps.ops[in.ID] = fn
				continue
			}
			// A call or the terminator ends the segment.
			seg := segment{
				cost: int64(in.ID-first+1) * CostPerInstr,
				ops:  fc.steps.ops[first:in.ID:in.ID],
				tail: in.ID,
			}
			if in.Op == ir.OpCall {
				seg.call, seg.callee = in, callee[in.Name]
				fc.steps.callees[in.ID] = seg.callee
			}
			bc.segs = append(bc.segs, seg)
			first = in.ID + 1
		}
	}
	return fc, nil
}

// compileOp builds the closure for one straight-line instruction.
func compileOp(in *ir.Instr, gslot map[string]int) (instrFn, error) {
	switch in.Op {
	case ir.OpConst:
		dst, v := in.Dst, in.Val
		return func(t *Thread, regs, locals []value.Value) error {
			regs[dst] = v
			return nil
		}, nil
	case ir.OpLoadLocal:
		dst, slot := in.Dst, in.Slot
		return func(t *Thread, regs, locals []value.Value) error {
			regs[dst] = locals[slot]
			return nil
		}, nil
	case ir.OpStoreLocal:
		slot, a := in.Slot, in.A
		return func(t *Thread, regs, locals []value.Value) error {
			locals[slot] = regs[a]
			return nil
		}, nil
	case ir.OpLoadGlobal:
		gs, ok := gslot[in.Name]
		if !ok {
			return nil, fmt.Errorf("undeclared global %s", in.Name)
		}
		dst := in.Dst
		return func(t *Thread, regs, locals []value.Value) error {
			if t.Tracer != nil {
				t.Tracer.TraceGlobal(t.ID, gs, false)
			}
			regs[dst] = t.Env.Globals.vals[gs]
			return nil
		}, nil
	case ir.OpStoreGlobal:
		gs, ok := gslot[in.Name]
		if !ok {
			return nil, fmt.Errorf("undeclared global %s", in.Name)
		}
		a := in.A
		return func(t *Thread, regs, locals []value.Value) error {
			t.HeapWrites++
			if t.Tracer != nil {
				t.Tracer.TraceGlobal(t.ID, gs, true)
			}
			t.Env.Globals.vals[gs] = regs[a]
			return nil
		}, nil
	case ir.OpBin:
		fn := ResolveBin(in.BinOp)
		dst, a, b, pos := in.Dst, in.A, in.B, in.Pos
		return func(t *Thread, regs, locals []value.Value) error {
			v, e := fn(regs[a], regs[b])
			if e != nil {
				return fmt.Errorf("%s: %v", pos, e)
			}
			regs[dst] = v
			return nil
		}, nil
	case ir.OpUn:
		fn := ResolveUn(in.BinOp)
		dst, a, pos := in.Dst, in.A, in.Pos
		return func(t *Thread, regs, locals []value.Value) error {
			v, e := fn(regs[a])
			if e != nil {
				return fmt.Errorf("%s: %v", pos, e)
			}
			regs[dst] = v
			return nil
		}, nil
	}
	return nil, fmt.Errorf("unknown op %s", in.Op)
}

// charge attributes one executed segment to the profile: CostPerInstr to
// each straight-line instruction, and CostPerInstr plus the callee's cost
// to the trailing call or terminator.
func (p *Profile) charge(s *segment, callee int64) {
	for id := s.tail - len(s.ops); id < s.tail; id++ {
		p.Cost[id] += CostPerInstr
	}
	p.Cost[s.tail] += CostPerInstr + callee
	p.Total += s.cost + callee
}

// run executes a compiled function body on its frame. A segment's full
// cost (its instructions plus the trailing call or terminator) is charged
// before the segment body; the only places other components read the
// thread's cost — call interceptors, scheduler yields, the final return —
// sit at segment boundaries.
func (t *Thread) run(fc *fnCode, regs, locals []value.Value) ([]value.Value, error) {
	prof := t.Profile
	if prof != nil && prof.Func != fc.f.Name {
		prof = nil
	}
	bi := 0
	for {
		bc := &fc.blocks[bi]
		for si := range bc.segs {
			s := &bc.segs[si]
			t.Cost += s.cost
			for _, fn := range s.ops {
				if err := fn(t, regs, locals); err != nil {
					return nil, err
				}
			}
			before := t.Cost
			if s.call != nil {
				if err := t.execCall(s.call, s.callee, regs, locals); err != nil {
					return nil, err
				}
			}
			if prof != nil {
				prof.charge(s, t.Cost-before)
			}
		}
		switch term := bc.term; term.Op {
		case ir.OpBr:
			bi = term.Targets[0]
		case ir.OpCondBr:
			if regs[term.A].AsBool() {
				bi = term.Targets[0]
			} else {
				bi = term.Targets[1]
			}
		default: // OpRet
			// Inside a call bracket the caller consumes the results before
			// the bracket pops, so they go to the arena like a builtin's.
			var out []value.Value
			if t.brackets > 0 {
				out = t.ScratchSlice(len(term.Args))
			} else {
				out = make([]value.Value, len(term.Args))
			}
			for i, r := range term.Args {
				out[i] = regs[r]
			}
			return out, nil
		}
	}
}
