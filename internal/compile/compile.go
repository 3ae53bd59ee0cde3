// Package compile is the ahead-of-time compilation back-end for ProgMP
// scheduler programs ("alternative 2" in §4.1 of the paper, which
// generates and compiles C functions). The Go analogue compiles the
// lowered IR (package ir) once into a tree of typed closures, so
// executions pay no IR dispatch and no intermediate allocations: queue
// FILTER chains, resolved statically by the lowering, compile to one
// predicate slice per scan (late materialization), and FILTER→MIN/MAX
// collapses into a single loop.
package compile

import (
	"fmt"
	"sync"

	"progmp/internal/lang/ir"
	"progmp/internal/lang/types"
	"progmp/internal/runtime"
)

// Compiled is a compiled scheduler program. It is safe for concurrent
// use with distinct environments; execution frames are pooled so a
// steady-state execution does not allocate.
type Compiled struct {
	stmts  []stmtFn
	frames sync.Pool
}

// New compiles a checked program.
func New(info *types.Info) *Compiled {
	prog := ir.Lower(info)
	cp := &Compiled{stmts: make([]stmtFn, len(prog.Body))}
	for i, s := range prog.Body {
		cp.stmts[i] = compileStmt(s)
	}
	cp.frames.New = func() any {
		return &state{slots: make([]value, prog.NumSlots)}
	}
	return cp
}

// Exec runs one scheduler execution against env.
//
//progmp:hotpath
//progmp:deterministic
func (cp *Compiled) Exec(env *runtime.Env) {
	st := cp.frames.Get().(*state)
	st.env = env
	for _, s := range cp.stmts {
		//progmp:ignore hotpath statement closures are compiled cold; bodies use the checked Env API and are covered by TestExecZeroAllocSteadyState
		if s(st) {
			break
		}
	}
	st.env = nil
	for i := range st.slots {
		st.slots[i] = value{}
	}
	for i := range st.arena {
		st.arena[i] = nil
	}
	st.arena = st.arena[:0]
	cp.frames.Put(st)
}

// value is a slot value; exactly one field is active per static type.
type value struct {
	i    int64
	b    bool
	pkt  *runtime.PacketView
	sbf  *runtime.SubflowView
	list []*runtime.SubflowView
}

type (
	state struct {
		env   *runtime.Env
		slots []value
		// arena backs materialized subflow-list variables; it is
		// truncated (not freed) between executions so steady-state
		// list materialization does not allocate. Slices handed out
		// before a growth keep their old backing array, so growth is
		// safe mid-execution.
		arena []*runtime.SubflowView
	}
	stmtFn func(*state) bool // true = RETURN unwinding
	intFn  func(*state) int64
	boolFn func(*state) bool
	pktFn  func(*state) *runtime.PacketView
	sbfFn  func(*state) *runtime.SubflowView
	predFn func(*state, *runtime.PacketView) bool
	// listFn yields a subflow list, materialized into the state arena.
	// Lists are eager (matching the interpreter's FILTER semantics);
	// consumers loop over the returned slice directly, so no
	// per-execution closures are created — a closure passed through an
	// indirect function value is what the escape analysis cannot keep
	// off the heap.
	listFn func(*state) []*runtime.SubflowView
)

// queueScan is a compiled ir.Queue: the base queue and its predicates,
// composed once at compile time and shared by every execution.
type queueScan struct {
	id    runtime.QueueID
	preds []predFn
}

func (q queueScan) each(st *state, yield func(*runtime.PacketView) bool) {
	st.env.Queue(q.id).All(func(p *runtime.PacketView) bool {
		for _, pred := range q.preds {
			if !pred(st, p) {
				return true
			}
		}
		return yield(p)
	})
}

func (q queueScan) top(st *state) *runtime.PacketView {
	var res *runtime.PacketView
	q.each(st, func(p *runtime.PacketView) bool {
		res = p
		return false
	})
	return res
}

// ---- Statements ----

func compileStmt(s ir.Stmt) stmtFn {
	switch s := s.(type) {
	case *ir.If:
		cond := compileBool(s.Cond)
		then := compileBlock(s.Then)
		if len(s.Else) == 0 {
			return func(st *state) bool {
				if cond(st) {
					return then(st)
				}
				return false
			}
		}
		els := compileBlock(s.Else)
		return func(st *state) bool {
			if cond(st) {
				return then(st)
			}
			return els(st)
		}
	case *ir.Let:
		slot := s.Slot
		switch s.Init.Type {
		case types.Int:
			f := compileInt(s.Init)
			return func(st *state) bool { st.slots[slot] = value{i: f(st)}; return false }
		case types.Bool:
			f := compileBool(s.Init)
			return func(st *state) bool { st.slots[slot] = value{b: f(st)}; return false }
		case types.Packet:
			f := compilePkt(s.Init)
			return func(st *state) bool { st.slots[slot] = value{pkt: f(st)}; return false }
		case types.Subflow:
			f := compileSbf(s.Init)
			return func(st *state) bool { st.slots[slot] = value{sbf: f(st)}; return false }
		case types.SubflowList:
			f := compileList(s.Init)
			return func(st *state) bool { st.slots[slot] = value{list: f(st)}; return false }
		}
	case *ir.Foreach:
		slot := s.Slot
		iter := compileList(s.List)
		body := compileBlock(s.Body)
		return func(st *state) bool {
			for _, sbf := range iter(st) {
				st.slots[slot] = value{sbf: sbf}
				if body(st) {
					return true
				}
			}
			return false
		}
	case *ir.Set:
		reg := s.Reg
		f := compileInt(s.Value)
		if s.Global {
			return func(st *state) bool { st.env.SetGlobal(reg, f(st)); return false }
		}
		return func(st *state) bool { st.env.SetReg(reg, f(st)); return false }
	case *ir.Push:
		target := compileSbf(s.Target)
		arg := compilePkt(s.Pkt)
		site := s.Site
		return func(st *state) bool {
			t, p := target(st), arg(st)
			st.env.Site = site
			st.env.Push(t, p)
			return false
		}
	case *ir.Drop:
		arg := compilePkt(s.Pkt)
		site := s.Site
		return func(st *state) bool {
			p := arg(st)
			st.env.Site = site
			st.env.Drop(p)
			return false
		}
	case *ir.Return:
		return func(*state) bool { return true }
	}
	panic(fmt.Sprintf("compile: unhandled statement %T", s))
}

func compileBlock(stmts []ir.Stmt) stmtFn {
	fns := make([]stmtFn, len(stmts))
	for i, s := range stmts {
		fns[i] = compileStmt(s)
	}
	return func(st *state) bool {
		for _, f := range fns {
			if f(st) {
				return true
			}
		}
		return false
	}
}

// compileQueue compiles the predicates of a resolved queue once.
func compileQueue(q *ir.Queue) queueScan {
	preds := make([]predFn, len(q.Preds))
	for i, lam := range q.Preds {
		slot := lam.Slot
		body := compileBool(lam.Body)
		preds[i] = func(st *state, p *runtime.PacketView) bool {
			st.slots[slot] = value{pkt: p}
			return body(st)
		}
	}
	return queueScan{id: q.ID, preds: preds}
}

// ---- Int expressions ----

func compileInt(e *ir.Expr) intFn {
	switch e.Op {
	case ir.Const:
		v := e.K
		return func(*state) int64 { return v }
	case ir.Reg:
		idx := int(e.K)
		return func(st *state) int64 { return st.env.Reg(idx) }
	case ir.Global:
		idx := int(e.K)
		return func(st *state) int64 { return st.env.Global(idx) }
	case ir.Local:
		slot := e.K
		return func(st *state) int64 { return st.slots[slot].i }
	case ir.Neg:
		x := compileInt(e.X)
		return func(st *state) int64 { return -x(st) }
	case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Mod:
		x, y := compileInt(e.X), compileInt(e.Y)
		switch e.Op {
		case ir.Add:
			return func(st *state) int64 { return x(st) + y(st) }
		case ir.Sub:
			return func(st *state) int64 { return x(st) - y(st) }
		case ir.Mul:
			return func(st *state) int64 { return x(st) * y(st) }
		case ir.Div:
			return func(st *state) int64 { return ir.DivInt(x(st), y(st)) }
		default:
			return func(st *state) int64 { return ir.ModInt(x(st), y(st)) }
		}
	case ir.SbfInt:
		recv := compileSbf(e.X)
		prop := runtime.SubflowIntProp(e.K)
		return func(st *state) int64 { return recv(st).Int(prop) }
	case ir.PktInt:
		recv := compilePkt(e.X)
		prop := runtime.PacketIntProp(e.K)
		return func(st *state) int64 { return recv(st).Int(prop) }
	case ir.ListCount:
		iter := compileList(e.X)
		return func(st *state) int64 { return int64(len(iter(st))) }
	case ir.QCount:
		q := compileQueue(e.Q)
		return func(st *state) int64 {
			var n int64
			q.each(st, func(*runtime.PacketView) bool { n++; return true })
			return n
		}
	case ir.QBytes:
		q := compileQueue(e.Q)
		return func(st *state) int64 {
			var n int64
			q.each(st, func(p *runtime.PacketView) bool { n += p.Ints[runtime.PktSize]; return true })
			return n
		}
	}
	panic(fmt.Sprintf("compile: unhandled int op %d", e.Op))
}

// ---- Bool expressions ----

func compileBool(e *ir.Expr) boolFn {
	switch e.Op {
	case ir.Const:
		v := e.K != 0
		return func(*state) bool { return v }
	case ir.Local:
		slot := e.K
		return func(st *state) bool { return st.slots[slot].b }
	case ir.Not:
		x := compileBool(e.X)
		return func(st *state) bool { return !x(st) }
	case ir.And:
		x, y := compileBool(e.X), compileBool(e.Y)
		return func(st *state) bool { return x(st) && y(st) }
	case ir.Or:
		x, y := compileBool(e.X), compileBool(e.Y)
		return func(st *state) bool { return x(st) || y(st) }
	case ir.Lt, ir.Le, ir.Gt, ir.Ge:
		x, y := compileInt(e.X), compileInt(e.Y)
		switch e.Op {
		case ir.Lt:
			return func(st *state) bool { return x(st) < y(st) }
		case ir.Le:
			return func(st *state) bool { return x(st) <= y(st) }
		case ir.Gt:
			return func(st *state) bool { return x(st) > y(st) }
		default:
			return func(st *state) bool { return x(st) >= y(st) }
		}
	case ir.EqInt, ir.EqBool, ir.EqPkt, ir.EqSbf:
		eq := compileEq(e)
		if e.K == 1 {
			return func(st *state) bool { return !eq(st) }
		}
		return eq
	case ir.SbfBool:
		recv := compileSbf(e.X)
		prop := runtime.SubflowBoolProp(e.K)
		return func(st *state) bool { return recv(st).Bool(prop) }
	case ir.HasWindow:
		recv, arg := compileSbf(e.X), compilePkt(e.Y)
		return func(st *state) bool { return recv(st).HasWindowFor(arg(st)) }
	case ir.SentOn:
		recv, arg := compilePkt(e.X), compileSbf(e.Y)
		return func(st *state) bool { return recv(st).SentOn(arg(st)) }
	case ir.ListEmpty:
		iter := compileList(e.X)
		return func(st *state) bool { return len(iter(st)) == 0 }
	case ir.QEmpty:
		q := compileQueue(e.Q)
		return func(st *state) bool { return q.top(st) == nil }
	}
	panic(fmt.Sprintf("compile: unhandled bool op %d", e.Op))
}

// compileEq compiles an equality of the operand type its op names.
func compileEq(e *ir.Expr) boolFn {
	switch e.Op {
	case ir.EqPkt:
		x, y := compilePkt(e.X), compilePkt(e.Y)
		return func(st *state) bool { return x(st) == y(st) }
	case ir.EqSbf:
		x, y := compileSbf(e.X), compileSbf(e.Y)
		return func(st *state) bool { return x(st) == y(st) }
	case ir.EqBool:
		x, y := compileBool(e.X), compileBool(e.Y)
		return func(st *state) bool { return x(st) == y(st) }
	}
	x, y := compileInt(e.X), compileInt(e.Y)
	return func(st *state) bool { return x(st) == y(st) }
}

// ---- Packet expressions ----

func compilePkt(e *ir.Expr) pktFn {
	switch e.Op {
	case ir.Const:
		return func(*state) *runtime.PacketView { return nil }
	case ir.Local:
		slot := e.K
		return func(st *state) *runtime.PacketView { return st.slots[slot].pkt }
	case ir.QTop:
		q := compileQueue(e.Q)
		return func(st *state) *runtime.PacketView { return q.top(st) }
	case ir.QPop:
		q := compileQueue(e.Q)
		site := e.Site
		return func(st *state) *runtime.PacketView {
			p := q.top(st)
			if p != nil {
				st.env.Site = site
				st.env.Pop(q.id, p)
			}
			return p
		}
	case ir.QMin, ir.QMax:
		q := compileQueue(e.Q)
		slot := e.Fn.Slot
		key := compileInt(e.Fn.Body)
		greatest := e.Op == ir.QMax
		return func(st *state) *runtime.PacketView {
			var best *runtime.PacketView
			var bestKey int64
			q.each(st, func(p *runtime.PacketView) bool {
				st.slots[slot] = value{pkt: p}
				k := key(st)
				if best == nil || ir.Beats(greatest, k, bestKey) {
					best, bestKey = p, k
				}
				return true
			})
			return best
		}
	}
	panic(fmt.Sprintf("compile: unhandled packet op %d", e.Op))
}

// ---- Subflow expressions ----

func compileSbf(e *ir.Expr) sbfFn {
	switch e.Op {
	case ir.Const:
		return func(*state) *runtime.SubflowView { return nil }
	case ir.Local:
		slot := e.K
		return func(st *state) *runtime.SubflowView { return st.slots[slot].sbf }
	case ir.ListMin, ir.ListMax:
		iter := compileList(e.X)
		slot := e.Fn.Slot
		key := compileInt(e.Fn.Body)
		greatest := e.Op == ir.ListMax
		return func(st *state) *runtime.SubflowView {
			var best *runtime.SubflowView
			var bestKey int64
			for _, sbf := range iter(st) {
				st.slots[slot] = value{sbf: sbf}
				k := key(st)
				if best == nil || ir.Beats(greatest, k, bestKey) {
					best, bestKey = sbf, k
				}
			}
			return best
		}
	case ir.ListGet:
		iter := compileList(e.X)
		idx := compileInt(e.Y)
		return func(st *state) *runtime.SubflowView {
			list := iter(st)
			if len(list) == 0 {
				return nil
			}
			return list[ir.Wrap(idx(st), int64(len(list)))]
		}
	}
	panic(fmt.Sprintf("compile: unhandled subflow op %d", e.Op))
}

// ---- Subflow lists ----

func compileList(e *ir.Expr) listFn {
	switch e.Op {
	case ir.Subflows:
		return func(st *state) []*runtime.SubflowView { return st.env.SubflowViews }
	case ir.Local:
		slot := e.K
		return func(st *state) []*runtime.SubflowView { return st.slots[slot].list }
	case ir.ListFilter:
		inner := compileList(e.X)
		slot := e.Fn.Slot
		pred := compileBool(e.Fn.Body)
		return func(st *state) []*runtime.SubflowView {
			src := inner(st)
			start := len(st.arena)
			for _, sbf := range src {
				st.slots[slot] = value{sbf: sbf}
				if pred(st) {
					st.arena = append(st.arena, sbf)
				}
			}
			return st.arena[start:len(st.arena):len(st.arena)]
		}
	}
	panic(fmt.Sprintf("compile: unhandled subflow list op %d", e.Op))
}
