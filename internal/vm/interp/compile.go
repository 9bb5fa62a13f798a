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
// CostPerInstr per executed instruction plus its callees' costs.
type segment struct {
	cost int64
	ops  []instrFn
	ids  []int     // instruction IDs of ops, for profiling
	call *ir.Instr // trailing OpCall, or nil for the terminator segment
	tail int       // instruction ID of the trailing call or terminator
}

// blockCode is one compiled basic block.
type blockCode struct {
	segs []segment
	term *ir.Instr // OpBr, OpCondBr, or OpRet; cost folded into last segment
}

// fnCode is one compiled function.
type fnCode struct {
	f       *ir.Func
	blocks  []blockCode
	zero    []value.Value // frame template: typed local zeros then zero regs
	nlocals int
	pool    sync.Pool // *[]value.Value frames, len == len(zero)
}

// progCode caches compiled functions for one immutable *ir.Program, and
// the compile error of each function whose IR is malformed. The IR is
// never structurally edited after the pipeline returns, so the cache is
// shared read-only across every thread and campaign cell of the program.
type progCode struct {
	fns  map[string]*fnCode
	errs map[string]error
}

var codeCache sync.Map // *ir.Program -> *progCode

// codeFor returns the compiled form of f, or the error that rejected its
// IR.
func codeFor(prog *ir.Program, f *ir.Func) (*fnCode, error) {
	v, ok := codeCache.Load(prog)
	if !ok {
		v, _ = codeCache.LoadOrStore(prog, compileProg(prog))
	}
	pc := v.(*progCode)
	if fc := pc.fns[f.Name]; fc != nil {
		return fc, nil
	}
	if err := pc.errs[f.Name]; err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("interp: %s is not a function of the program", f.Name)
}

func compileProg(prog *ir.Program) *progCode {
	gslot := make(map[string]int, len(prog.Globals))
	for i, g := range prog.Globals {
		gslot[g.Name] = i
	}
	pc := &progCode{fns: make(map[string]*fnCode, len(prog.Funcs)), errs: map[string]error{}}
	for name, f := range prog.Funcs {
		fc, err := compileFunc(f, gslot)
		if err != nil {
			pc.errs[name] = err
			continue
		}
		pc.fns[name] = fc
	}
	return pc
}

// compileFunc pre-compiles one function. Every block must be a
// straight-line run ending in its only terminator, stored at the index
// equal to its ID, with branch targets inside the function.
func compileFunc(f *ir.Func, gslot map[string]int) (*fnCode, error) {
	if len(f.Blocks) == 0 {
		return nil, fmt.Errorf("interp: malformed IR in %s: function has no blocks", f.Name)
	}
	fc := &fnCode{
		f:       f,
		blocks:  make([]blockCode, len(f.Blocks)),
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
		var seg segment
		flush := func(call, tail *ir.Instr) {
			seg.cost = int64(len(seg.ops)+1) * CostPerInstr
			seg.call, seg.tail = call, tail.ID
			bc.segs = append(bc.segs, seg)
			seg = segment{}
		}
		for _, in := range blk.Instrs[:len(blk.Instrs)-1] {
			if in.IsTerminator() {
				return nil, malformed("%s before the end of the block", in.Op)
			}
			if in.Op == ir.OpCall {
				flush(in, in)
				continue
			}
			fn, err := compileOp(in, gslot)
			if err != nil {
				return nil, malformed("%v", err)
			}
			seg.ops = append(seg.ops, fn)
			seg.ids = append(seg.ids, in.ID)
		}
		flush(nil, term) // trailing segment carries the terminator's cost
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
		dst, name := in.Dst, in.Name
		return func(t *Thread, regs, locals []value.Value) error {
			if t.Tracer != nil {
				t.Tracer.TraceGlobal(t.ID, name, false)
			}
			regs[dst] = t.Env.Globals.vals[gs]
			return nil
		}, nil
	case ir.OpStoreGlobal:
		gs, ok := gslot[in.Name]
		if !ok {
			return nil, fmt.Errorf("undeclared global %s", in.Name)
		}
		a, name := in.A, in.Name
		return func(t *Thread, regs, locals []value.Value) error {
			t.HeapWrites++
			if t.Tracer != nil {
				t.Tracer.TraceGlobal(t.ID, name, true)
			}
			t.Env.Globals.vals[gs] = regs[a]
			return nil
		}, nil
	case ir.OpBin:
		fn := binOps[in.BinOp]
		dst, a, b, pos := in.Dst, in.A, in.B, in.Pos
		if fn == nil {
			name := in.BinOp
			return func(t *Thread, regs, locals []value.Value) error {
				return fmt.Errorf("%s: %v", pos, invalidBin(name, regs[a]))
			}, nil
		}
		return func(t *Thread, regs, locals []value.Value) error {
			v, e := fn(regs[a], regs[b])
			if e != nil {
				return fmt.Errorf("%s: %v", pos, e)
			}
			regs[dst] = v
			return nil
		}, nil
	case ir.OpUn:
		fn := unOps[in.BinOp]
		dst, a, pos := in.Dst, in.A, in.Pos
		if fn == nil {
			name := in.BinOp
			return func(t *Thread, regs, locals []value.Value) error {
				return fmt.Errorf("%s: %v", pos, invalidUn(name, regs[a]))
			}, nil
		}
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
	for _, id := range s.ids {
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
				if err := t.execCall(s.call, regs, locals); err != nil {
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
			out := make([]value.Value, len(term.Args))
			for i, r := range term.Args {
				out[i] = regs[r]
			}
			return out, nil
		}
	}
}
