// Package interp is the tree-walking interpreter back-end for ProgMP
// scheduler programs — the reference semantics ("alternative 1" in §4.1
// of the paper). It walks the lowered IR (package ir) directly and is
// the baseline the compiled back-ends are verified against.
package interp

import (
	"fmt"
	"sync"

	"progmp/internal/lang/ir"
	"progmp/internal/lang/types"
	"progmp/internal/runtime"
)

// Interpreter executes a lowered program directly over its IR. It is
// safe for concurrent use with distinct environments; execution frames
// are pooled so a steady-state execution does not allocate.
type Interpreter struct {
	prog   *ir.Program
	frames sync.Pool
}

// New builds an interpreter for a checked program.
func New(info *types.Info) *Interpreter {
	prog := ir.Lower(info)
	it := &Interpreter{prog: prog}
	it.frames.New = func() any {
		return &frame{slots: make([]value, prog.NumSlots)}
	}
	return it
}

// Exec runs one scheduler execution against env.
//
//progmp:hotpath
//progmp:deterministic
func (it *Interpreter) Exec(env *runtime.Env) {
	f := it.frames.Get().(*frame)
	f.env = env
	f.block(it.prog.Body)
	f.env = nil
	for i := range f.slots {
		f.slots[i] = value{}
	}
	f.sbfLists = f.sbfLists[:0]
	it.frames.Put(f)
}

// value is the interpreter's dynamic value. Exactly one representation
// is active, chosen by the static type of the producing expression;
// bools are 0 or 1 in i.
type value struct {
	i    int64
	pkt  *runtime.PacketView
	sbf  *runtime.SubflowView
	list []*runtime.SubflowView
}

func b2v(b bool) value {
	if b {
		return value{i: 1}
	}
	return value{}
}

type frame struct {
	env   *runtime.Env
	slots []value
	// sbfLists is the per-execution arena for materialized subflow
	// lists. Values produced during an execution hold capacity-capped
	// sub-slices; entries are write-once, so a later arena growth
	// (which copies) cannot invalidate them. It resets to length zero
	// between executions, keeping its capacity — in steady state no
	// execution allocates.
	sbfLists []*runtime.SubflowView
}

// qEach visits the visible packets of q that pass its predicates, in
// queue order, until fn returns false.
func (f *frame) qEach(q *ir.Queue, fn func(*runtime.PacketView) bool) {
	f.env.Queue(q.ID).All(func(p *runtime.PacketView) bool {
		for _, pred := range q.Preds {
			f.slots[pred.Slot] = value{pkt: p}
			if f.eval(pred.Body).i == 0 {
				return true // skip, continue walking
			}
		}
		//progmp:ignore hotpath callback literal is checked inline at each call site
		return fn(p)
	})
}

// qTop returns the first matching packet or nil.
func (f *frame) qTop(q *ir.Queue) *runtime.PacketView {
	var res *runtime.PacketView
	f.qEach(q, func(p *runtime.PacketView) bool {
		res = p
		return false
	})
	return res
}

// block executes stmts; it returns true when a RETURN unwinds.
func (f *frame) block(stmts []ir.Stmt) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ir.If:
			body := s.Else
			if f.eval(s.Cond).i != 0 {
				body = s.Then
			}
			if f.block(body) {
				return true
			}
		case *ir.Let:
			f.slots[s.Slot] = f.eval(s.Init)
		case *ir.Foreach:
			for _, sbf := range f.eval(s.List).list {
				f.slots[s.Slot] = value{sbf: sbf}
				if f.block(s.Body) {
					return true
				}
			}
		case *ir.Set:
			if v := f.eval(s.Value).i; s.Global {
				f.env.SetGlobal(s.Reg, v)
			} else {
				f.env.SetReg(s.Reg, v)
			}
		case *ir.Push:
			target := f.eval(s.Target).sbf
			pkt := f.eval(s.Pkt).pkt
			f.env.Site = s.Site
			f.env.Push(target, pkt)
		case *ir.Drop:
			pkt := f.eval(s.Pkt).pkt
			f.env.Site = s.Site
			f.env.Drop(pkt)
		case *ir.Return:
			return true
		}
	}
	return false
}

func (f *frame) eval(e *ir.Expr) value {
	switch e.Op {
	case ir.Const:
		return value{i: e.K}
	case ir.Reg:
		return value{i: f.env.Reg(int(e.K))}
	case ir.Global:
		return value{i: f.env.Global(int(e.K))}
	case ir.Local:
		return f.slots[e.K]
	case ir.Neg:
		return value{i: -f.eval(e.X).i}
	case ir.Not:
		return value{i: f.eval(e.X).i ^ 1}
	case ir.And:
		if f.eval(e.X).i == 0 {
			return value{}
		}
		return f.eval(e.Y)
	case ir.Or:
		if f.eval(e.X).i != 0 {
			return value{i: 1}
		}
		return f.eval(e.Y)
	case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Mod, ir.Lt, ir.Le, ir.Gt, ir.Ge:
		return arith(e.Op, f.eval(e.X).i, f.eval(e.Y).i)
	case ir.EqInt, ir.EqBool:
		return b2v((f.eval(e.X).i == f.eval(e.Y).i) != (e.K == 1))
	case ir.EqPkt:
		return b2v((f.eval(e.X).pkt == f.eval(e.Y).pkt) != (e.K == 1))
	case ir.EqSbf:
		return b2v((f.eval(e.X).sbf == f.eval(e.Y).sbf) != (e.K == 1))
	case ir.SbfInt:
		return value{i: f.eval(e.X).sbf.Int(runtime.SubflowIntProp(e.K))}
	case ir.SbfBool:
		return b2v(f.eval(e.X).sbf.Bool(runtime.SubflowBoolProp(e.K)))
	case ir.PktInt:
		return value{i: f.eval(e.X).pkt.Int(runtime.PacketIntProp(e.K))}
	case ir.HasWindow:
		return b2v(f.eval(e.X).sbf.HasWindowFor(f.eval(e.Y).pkt))
	case ir.SentOn:
		return b2v(f.eval(e.X).pkt.SentOn(f.eval(e.Y).sbf))
	case ir.Subflows:
		return value{list: f.env.SubflowViews}
	case ir.ListFilter:
		start := len(f.sbfLists)
		for _, sbf := range f.eval(e.X).list {
			f.slots[e.Fn.Slot] = value{sbf: sbf}
			if f.eval(e.Fn.Body).i != 0 {
				//progmp:ignore hotpath amortized: pooled frame retains arena capacity
				f.sbfLists = append(f.sbfLists, sbf)
			}
		}
		return value{list: f.sbfLists[start:len(f.sbfLists):len(f.sbfLists)]}
	case ir.ListMin, ir.ListMax:
		var best *runtime.SubflowView
		var bestKey int64
		for _, sbf := range f.eval(e.X).list {
			f.slots[e.Fn.Slot] = value{sbf: sbf}
			key := f.eval(e.Fn.Body).i
			if best == nil || ir.Beats(e.Op == ir.ListMax, key, bestKey) {
				best, bestKey = sbf, key
			}
		}
		return value{sbf: best}
	case ir.ListEmpty:
		return b2v(len(f.eval(e.X).list) == 0)
	case ir.ListCount:
		return value{i: int64(len(f.eval(e.X).list))}
	case ir.ListGet:
		list := f.eval(e.X).list
		idx := f.eval(e.Y).i
		if len(list) == 0 {
			return value{}
		}
		return value{sbf: list[ir.Wrap(idx, int64(len(list)))]}
	case ir.QTop:
		return value{pkt: f.qTop(e.Q)}
	case ir.QPop:
		p := f.qTop(e.Q)
		if p != nil {
			f.env.Site = e.Site
			f.env.Pop(e.Q.ID, p)
		}
		return value{pkt: p}
	case ir.QEmpty:
		return b2v(f.qTop(e.Q) == nil)
	case ir.QCount, ir.QBytes:
		var n int64
		f.qEach(e.Q, func(p *runtime.PacketView) bool {
			if e.Op == ir.QCount {
				n++
			} else {
				n += p.Ints[runtime.PktSize]
			}
			return true
		})
		return value{i: n}
	case ir.QMin, ir.QMax:
		var best *runtime.PacketView
		var bestKey int64
		f.qEach(e.Q, func(p *runtime.PacketView) bool {
			f.slots[e.Fn.Slot] = value{pkt: p}
			key := f.eval(e.Fn.Body).i
			if best == nil || ir.Beats(e.Op == ir.QMax, key, bestKey) {
				best, bestKey = p, key
			}
			return true
		})
		return value{pkt: best}
	}
	//progmp:ignore hotpath cold panic: lowered programs have no other ops
	panic(fmt.Sprintf("interp: unhandled op %d", e.Op))
}

func arith(op ir.Op, x, y int64) value {
	switch op {
	case ir.Add:
		return value{i: x + y}
	case ir.Sub:
		return value{i: x - y}
	case ir.Mul:
		return value{i: x * y}
	case ir.Div:
		return value{i: ir.DivInt(x, y)}
	case ir.Mod:
		return value{i: ir.ModInt(x, y)}
	case ir.Lt:
		return b2v(x < y)
	case ir.Le:
		return b2v(x <= y)
	case ir.Gt:
		return b2v(x > y)
	}
	return b2v(x >= y)
}
