// Package interp executes COMMSET IR.
//
// The interpreter is deliberately small and deterministic. It is used three
// ways:
//
//  1. as the reference sequential executor (baseline timings, output
//     validation),
//  2. as the profiler that weights PDG nodes for the pipeline-balancing
//     heuristics of the DSWP family (paper Section 4.5), and
//  3. as the per-logical-thread execution engine inside the discrete-event
//     multicore simulator, where an Interceptor wraps commutative-member
//     calls with synchronization and virtual-time bookkeeping.
//
// Every instruction and builtin charges virtual cost units to the executing
// Thread; the simulator turns those into virtual time.
package interp

import (
	"fmt"
	"slices"

	"repro/internal/ir"
	"repro/internal/vm/value"
)

// CostPerInstr is the virtual cost charged for one IR instruction.
const CostPerInstr = 1

// BuiltinFn executes a substrate builtin: it returns the result value and
// the virtual cost of the operation.
type BuiltinFn func(args []value.Value) (value.Value, int64, error)

// Heap holds global variable storage. The discrete-event scheduler
// serializes thread execution, so no locking is needed.
//
// Storage is a dense slice indexed by slot; slots are assigned in program
// declaration order (so compiled code resolves a global name to its slot
// once, at compile time, and indexes the slice directly). The named
// Get/Set/Snapshot API serves snapshots, tracing, and tests.
type Heap struct {
	vals  []value.Value
	names []string
	idx   map[string]int
}

// NewHeap initializes globals from the program's declarations. Slot i holds
// prog.Globals[i], which is the contract compiled code relies on.
func NewHeap(prog *ir.Program) *Heap {
	h := &Heap{
		vals:  make([]value.Value, len(prog.Globals)),
		names: make([]string, len(prog.Globals)),
		idx:   make(map[string]int, len(prog.Globals)),
	}
	for i, g := range prog.Globals {
		h.vals[i] = g.Init
		h.names[i] = g.Name
		h.idx[g.Name] = i
	}
	return h
}

// Get reads a global.
func (h *Heap) Get(name string) value.Value {
	if i, ok := h.idx[name]; ok {
		return h.vals[i]
	}
	return value.Value{}
}

// Set writes a global, appending a fresh slot for a name the program did
// not declare (tests do this; compiled code never references such slots).
func (h *Heap) Set(name string, v value.Value) {
	if i, ok := h.idx[name]; ok {
		h.vals[i] = v
		return
	}
	h.idx[name] = len(h.vals)
	h.names = append(h.names, name)
	h.vals = append(h.vals, v)
}

// Snapshot copies the globals (used by STM validation and tests).
func (h *Heap) Snapshot() map[string]value.Value {
	out := make(map[string]value.Value, len(h.vals))
	for i, name := range h.names {
		out[name] = h.vals[i]
	}
	return out
}

// Range calls fn for every global in slot order without allocating.
func (h *Heap) Range(fn func(name string, v value.Value)) {
	for i, name := range h.names {
		fn(name, h.vals[i])
	}
}

// Env bundles the immutable program with the mutable shared state.
type Env struct {
	Prog    *ir.Program
	Globals *Heap

	code     *progCode
	builtins []BuiltinFn // the builtins by callee index, bound by NewEnv
}

// NewEnv creates an execution environment for prog, compiling prog on
// first use and binding builtins to prog's callee indices once, so calls
// dispatch without a name lookup. A builtin that no function or call site
// of prog names is never called.
func NewEnv(prog *ir.Program, builtins map[string]BuiltinFn) *Env {
	pc := codeOf(prog)
	env := &Env{Prog: prog, Globals: NewHeap(prog), code: pc, builtins: make([]BuiltinFn, len(pc.callees))}
	for i, name := range pc.callees {
		env.builtins[i] = builtins[name]
	}
	return env
}

// Steps returns the compiled form of the program's function name, by
// instruction ID, or the error that rejected its IR.
func (env *Env) Steps(name string) (*Steps, error) {
	i, ok := env.code.index[name]
	switch {
	case !ok || env.code.fns[i] == nil && env.code.errs[i] == nil:
		return nil, fmt.Errorf("interp: undefined function %s", name)
	case env.code.errs[i] != nil:
		return nil, env.code.errs[i]
	}
	return &env.code.fns[i].steps, nil
}

// Profile accumulates per-instruction virtual cost for one function,
// attributing callee time to the call instruction.
type Profile struct {
	Func  string
	Cost  []int64
	Total int64
}

// NewProfile prepares a profile for the named function.
func NewProfile(f *ir.Func) *Profile {
	return &Profile{Func: f.Name, Cost: make([]int64, f.NumInstrs())}
}

// Interceptor wraps a call instruction's execution. invoke performs the
// actual call (charging its cost to the thread); the interceptor may charge
// additional cost or block the thread in virtual time around it. callee is
// the call's callee index (see Callees), and args are the concrete argument
// values the call was issued with.
type Interceptor func(t *Thread, in *ir.Instr, callee int, args []value.Value, invoke func() ([]value.Value, error)) ([]value.Value, error)

// Tracer observes memory-relevant events as they execute: global
// loads/stores, by the global's slot (its index in the program's
// Globals), and builtin invocations, by callee index (see Callees) with
// the concrete arguments. The sanitizer's shadow-cell engine hangs off
// it. Tracing charges no cost.
type Tracer interface {
	TraceGlobal(tid, slot int, write bool)
	TraceBuiltin(tid, callee int, args []value.Value)
}

// Thread is one logical execution context.
type Thread struct {
	Env  *Env
	Cost int64 // accumulated virtual cost units

	// HeapWrites counts global stores performed by this thread. The
	// resilient executor uses it to tell whether a failed loop iteration
	// externalized state (and therefore cannot be re-executed).
	HeapWrites int

	// ID identifies the logical thread inside the simulator (0 for the
	// sequential reference executor).
	ID int

	// Interceptor, when set, wraps every OpCall.
	Interceptor Interceptor

	// Tracer, when set, observes global accesses and builtin calls.
	Tracer Tracer

	// Profile, when set, accumulates per-instruction cost for the function
	// it names.
	Profile *Profile

	// depth guards against runaway recursion in user programs.
	depth int

	// scratch is a stack arena for call-argument and result slices:
	// execCall carves each call's arguments here (and a builtin or user
	// function its results) and pops them once the call's results are
	// consumed, so nested calls reuse one growing backing array instead
	// of allocating per call. Sound because nothing retains such a slice
	// past the call: builtins read their arguments, interceptors pass
	// them through, every caller copies results into registers before
	// its bracket pops, and the sanitizer copies what it records.
	// brackets counts the active Mark/Release pairs — results only go to
	// the arena when a bracket is there to pop them.
	scratch  []value.Value
	brackets int

	// invokeFn is the one reusable invoke closure handed to the
	// interceptor; it reads the current call from curCallee/curArgs,
	// which execCallArgs saves and restores around nested calls (so it
	// stays correct across interceptor-level retries too).
	invokeFn  func() ([]value.Value, error)
	curCallee int
	curArgs   []value.Value
}

// ScratchMark opens an arena bracket and returns the position to pop back
// to; paired with ScratchRelease by every caller that carves.
func (t *Thread) ScratchMark() int {
	t.brackets++
	return len(t.scratch)
}

// ScratchRelease closes an arena bracket, popping back to mark.
func (t *Thread) ScratchRelease(mark int) {
	t.brackets--
	t.scratch = t.scratch[:mark]
}

// ScratchSlice carves an n-element slice from the arena, capacity-clamped
// so callee carves can never alias it. The slots are not cleared: they may
// hold values of an earlier, released carve, and every caller writes each
// slot before it reads it.
func (t *Thread) ScratchSlice(n int) []value.Value {
	m := len(t.scratch)
	t.scratch = slices.Grow(t.scratch, n)[:m+n]
	return t.scratch[m : m+n : m+n]
}

// maxDepth bounds user-program recursion.
const maxDepth = 10000

// NewThread creates a thread over env.
func NewThread(env *Env) *Thread { return &Thread{Env: env} }

// RunMain executes the program's main function.
func (t *Thread) RunMain() error {
	_, err := t.CallByName("main", nil)
	return err
}

// CallByName invokes a user function or builtin by name, through the
// program's callee numbering (see Callees): a name that no function or
// call site of the program has is undefined. Compiled calls dispatch by
// callee index instead (see Call); this is the entry point for callers
// that hold only a name.
func (t *Thread) CallByName(name string, args []value.Value) ([]value.Value, error) {
	if i, ok := t.Env.code.index[name]; ok {
		return t.Call(i, args)
	}
	return nil, fmt.Errorf("interp: undefined function %s", name)
}

// Call invokes callee index i of the program (see Callees): its user
// function when the program defines one, whose malformed IR fails here
// with its compile error, and otherwise the Env's builtin of that name. A
// name bound to neither fails only when it is called.
func (t *Thread) Call(i int, args []value.Value) ([]value.Value, error) {
	env := t.Env
	if fc := env.code.fns[i]; fc != nil {
		return t.runFunc(fc, args)
	}
	if err := env.code.errs[i]; err != nil {
		return nil, err
	}
	if b := env.builtins[i]; b != nil {
		return t.callBuiltin(i, b, args)
	}
	return nil, fmt.Errorf("interp: undefined function %s", env.code.callees[i])
}

// callBuiltin runs builtin b, callee index i, charging its cost; inside a
// call bracket its single result is carved from the arena.
func (t *Thread) callBuiltin(i int, b BuiltinFn, args []value.Value) ([]value.Value, error) {
	if t.Tracer != nil {
		t.Tracer.TraceBuiltin(t.ID, i, args)
	}
	v, cost, err := b(args)
	t.Cost += cost
	if err != nil {
		return nil, err
	}
	if t.brackets > 0 {
		m := len(t.scratch)
		t.scratch = append(t.scratch, v)
		return t.scratch[m : m+1 : m+1], nil
	}
	return []value.Value{v}, nil
}

// runFunc runs a compiled function (regions may return several results)
// on a pooled frame. The frame goes back to the pool once the results are
// copied out; a panicking body abandons its thread, so no deferred cleanup
// is needed.
func (t *Thread) runFunc(fc *fnCode, args []value.Value) ([]value.Value, error) {
	f := fc.f
	if t.depth >= maxDepth {
		return nil, fmt.Errorf("interp: call depth exceeded in %s", f.Name)
	}
	if len(args) != f.Params {
		return nil, fmt.Errorf("interp: %s expects %d args, got %d", f.Name, f.Params, len(args))
	}
	t.depth++
	bp := fc.pool.Get().(*[]value.Value)
	buf := *bp
	copy(buf, fc.zero)
	locals := buf[:fc.nlocals:fc.nlocals]
	regs := buf[fc.nlocals:]
	copy(locals, args)
	rets, err := t.run(fc, regs, locals)
	fc.pool.Put(bp)
	t.depth--
	return rets, err
}

// execCall performs one call instruction, whose callee index is callee.
// The argument slice is carved from the thread's scratch arena and popped
// once the call's results are consumed.
func (t *Thread) execCall(in *ir.Instr, callee int, regs, locals []value.Value) error {
	mark := t.ScratchMark()
	args := t.ScratchSlice(len(in.Args))
	for i, r := range in.Args {
		args[i] = regs[r]
	}
	err := t.execCallArgs(in, callee, regs, locals, args)
	t.ScratchRelease(mark)
	return err
}

// execCallArgs finishes a call once its argument slice is built; every
// result is consumed (copied into regs/locals) before it returns, which is
// what lets execCall pop the argument arena afterwards.
func (t *Thread) execCallArgs(in *ir.Instr, callee int, regs, locals, args []value.Value) error {
	var rets []value.Value
	var err error
	if t.Interceptor == nil {
		rets, err = t.Call(callee, args)
	} else {
		if t.invokeFn == nil {
			t.invokeFn = func() ([]value.Value, error) { return t.Call(t.curCallee, t.curArgs) }
		}
		savedCallee, savedArgs := t.curCallee, t.curArgs
		t.curCallee, t.curArgs = callee, args
		rets, err = t.Interceptor(t, in, callee, args, t.invokeFn)
		t.curCallee, t.curArgs = savedCallee, savedArgs
	}
	if err != nil {
		return err
	}
	if in.Dst >= 0 {
		if len(rets) == 0 {
			return fmt.Errorf("%s: call %s returned no value", in.Pos, in.Name)
		}
		regs[in.Dst] = rets[0]
	}
	if len(in.OutSlots) > 0 {
		if len(rets) != len(in.OutSlots) {
			return fmt.Errorf("%s: region %s returned %d values, caller expects %d",
				in.Pos, in.Name, len(rets), len(in.OutSlots))
		}
		for i, slot := range in.OutSlots {
			locals[slot] = rets[i]
		}
	}
	return nil
}
