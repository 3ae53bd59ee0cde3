package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"progmp/internal/lang/ir"
	"progmp/internal/vm"
)

// The step-bound model expresses a program's worst-case VM step count
// as a polynomial over two size parameters: S, the number of subflows
// (bounded by runtime.MaxSubflows), and N, the number of visible
// packets in the longest queue (unbounded by the language, so
// evaluated at a reference depth). It walks the lowered program
// (package ir) in the shape the VM code generator (vm/compiler.go)
// emits it, charging each emitted instruction vm.StepCost: the
// instruction plus the spill loads and stores the register allocator
// may wrap around it. The IR optimizer only removes or cheapens
// instructions on any path, except that it hoists repeated constants
// into an entry preamble; every constant load is charged one extra
// step to pay for that. Loops over subflows and queue scans charge
// their iteration S+1 and N+1 times (the extra pass is the exit test),
// and both arms of an IF are summed, so every emitted instruction is
// charged at least once — generic and specialized programs alike. The
// language cannot FOREACH over queues, so the degree is bounded by the
// static nesting.

// term is one monomial's exponents: coeff · S^s · N^n.
type term struct{ s, n int }

// maxExponent caps monomial degree, keeping the representation finite.
// Only nine nested loops reach it, and at the reference size a
// degree-8 term is already far over the budget.
const maxExponent = 8

// poly is a sparse polynomial with saturating coefficients.
type poly map[term]int64

func constPoly(c int64) poly { return poly{term{}: c} }

func satAdd(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		if b > 0 {
			return math.MaxInt64, true
		}
		return math.MinInt64, true
	}
	return s, false
}

func satMul(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, false
	}
	p := a * b
	if p/b != a {
		if (a > 0) == (b > 0) {
			return math.MaxInt64, true
		}
		return math.MinInt64, true
	}
	return p, false
}

// add returns p + q.
func (p poly) add(q poly) poly {
	out := make(poly, len(p)+len(q))
	for t, c := range p {
		out[t] = c
	}
	for t, c := range q {
		s, _ := satAdd(out[t], c)
		out[t] = s
	}
	return out
}

// addConst returns p + c.
func (p poly) addConst(c int64) poly { return p.add(constPoly(c)) }

// mul returns p · q with exponents clamped at maxExponent.
func (p poly) mul(q poly) poly {
	out := make(poly)
	for tp, cp := range p {
		for tq, cq := range q {
			t := term{tp.s + tq.s, tp.n + tq.n}
			if t.s > maxExponent {
				t.s = maxExponent
			}
			if t.n > maxExponent {
				t.n = maxExponent
			}
			c, _ := satMul(cp, cq)
			s, _ := satAdd(out[t], c)
			out[t] = s
		}
	}
	return out
}

// eval computes the bound at S subflows and N queued packets,
// saturating at MaxInt64.
func (p poly) eval(S, N int64) int64 {
	var total int64
	for t, c := range p {
		v := c
		for i := 0; i < t.s; i++ {
			v, _ = satMul(v, S)
		}
		for i := 0; i < t.n; i++ {
			v, _ = satMul(v, N)
		}
		total, _ = satAdd(total, v)
	}
	return total
}

// String renders the polynomial in a stable order, constants first,
// then by total degree: "12 + 34·S + 5·S·N²".
func (p poly) String() string {
	terms := make([]term, 0, len(p))
	for t, c := range p {
		if c != 0 {
			terms = append(terms, t)
		}
	}
	if len(terms) == 0 {
		return "0"
	}
	sort.Slice(terms, func(i, j int) bool {
		a, b := terms[i], terms[j]
		if a.s+a.n != b.s+b.n {
			return a.s+a.n < b.s+b.n
		}
		if a.s != b.s {
			return a.s < b.s
		}
		return a.n < b.n
	})
	var b strings.Builder
	for i, t := range terms {
		if i > 0 {
			b.WriteString(" + ")
		}
		c := p[t]
		if c != 1 || (t.s == 0 && t.n == 0) {
			fmt.Fprintf(&b, "%d", c)
			if t.s > 0 || t.n > 0 {
				b.WriteString("·")
			}
		}
		writeVar := func(name string, exp int) {
			if exp == 0 {
				return
			}
			b.WriteString(name)
			if exp > 1 {
				fmt.Fprintf(&b, "^%d", exp)
			}
		}
		writeVar("S", t.s)
		if t.s > 0 && t.n > 0 {
			b.WriteString("·")
		}
		writeVar("N", t.n)
	}
	return b.String()
}

var (
	sTerm = poly{term{s: 1}: 1}
	nTerm = poly{term{n: 1}: 1}
)

// ---- Program cost ----

// coster walks a lowered program in the order the VM code generator
// emits it and charges every instruction at the current loop nesting.
type coster struct {
	// steps holds, per nesting term{s, n}, the steps repeated
	// (S+1)^s·(N+1)^n times.
	steps map[term]int64
	nest  term
}

var (
	sPasses = sTerm.addConst(1)
	nPasses = nTerm.addConst(1)
)

// programCost bounds the steps of one execution of prog.
func programCost(prog *ir.Program) poly {
	c := &coster{steps: make(map[term]int64)}
	c.stmts(prog.Body)
	c.charge(vm.OpReturn)
	total := constPoly(0)
	for t, steps := range c.steps {
		p := constPoly(steps)
		for i := 0; i < t.s; i++ {
			p = p.mul(sPasses)
		}
		for i := 0; i < t.n; i++ {
			p = p.mul(nPasses)
		}
		total = total.add(p)
	}
	return total
}

func (c *coster) charge(ops ...vm.Op) {
	for _, op := range ops {
		c.steps[c.nest] += vm.StepCost(op)
	}
}

// imm charges n constant loads, each with its share of the preamble
// the optimizer hoists repeated constants into.
func (c *coster) imm(n int64) {
	c.steps[c.nest] += n * (vm.StepCost(vm.OpMovImm) + 1)
}

// subflowLoop charges a loop over subflow indices: the generic loop's
// setup (count, index, increment) once, and S+1 passes through its
// header, body and back edge. An unrolled specialized loop costs less.
func (c *coster) subflowLoop(body func()) {
	c.imm(3)
	c.nest.s++
	c.charge(vm.OpLt, vm.OpJz, vm.OpAdd, vm.OpJmp)
	body()
	c.nest.s--
}

// queueScan charges a scan of q: per pass the cursor advance, the exit
// test, every predicate and the body. A scan makes N+1 passes, one per
// visible packet and the exit; a stopping scan without predicates
// makes one, since its first pass exits or stops.
func (c *coster) queueScan(q *ir.Queue, stops bool, body func()) {
	c.imm(1)
	full := !stops || len(q.Preds) > 0
	if full {
		c.nest.n++
	}
	c.imm(1)
	c.charge(vm.OpQNext, vm.OpLt, vm.OpJnz, vm.OpPktRef, vm.OpJmp)
	for _, lam := range q.Preds {
		c.charge(vm.OpMov)
		c.cond(lam.Body)
	}
	body()
	if full {
		c.nest.n--
	}
}

// queueTop charges a scan for the first matching packet.
func (c *coster) queueTop(q *ir.Queue) {
	c.imm(1)
	c.queueScan(q, true, func() { c.charge(vm.OpMov, vm.OpJmp) })
}

// take charges one MIN/MAX selection step: a NULL test, a key
// comparison, two conditional jumps and two moves.
func (c *coster) take() {
	c.charge(vm.OpEq, vm.OpJnz, vm.OpLt, vm.OpJz, vm.OpMov, vm.OpMov)
}

func (c *coster) stmts(stmts []ir.Stmt) {
	for _, s := range stmts {
		c.stmt(s)
	}
}

func (c *coster) stmt(s ir.Stmt) {
	switch s := s.(type) {
	case *ir.If:
		c.cond(s.Cond)
		c.stmts(s.Then)
		if len(s.Else) > 0 {
			c.charge(vm.OpJmp)
			c.stmts(s.Else)
		}
	case *ir.Let:
		c.expr(s.Init)
	case *ir.Foreach:
		c.expr(s.List)
		c.subflowLoop(func() {
			c.charge(vm.OpJbc, vm.OpSbfRef)
			c.stmts(s.Body)
		})
	case *ir.Set:
		c.expr(s.Value)
		c.charge(vm.OpStoreReg)
	case *ir.Push:
		c.expr(s.Target)
		c.expr(s.Pkt)
		c.charge(vm.OpPush)
	case *ir.Drop:
		c.expr(s.Pkt)
		c.charge(vm.OpDrop)
	case *ir.Return:
		c.charge(vm.OpReturn)
	}
}

// cond charges an expression compiled in branch context.
func (c *coster) cond(e *ir.Expr) {
	switch e.Op {
	case ir.Const:
		c.charge(vm.OpJmp)
	case ir.Not:
		c.cond(e.X)
	case ir.And, ir.Or:
		c.cond(e.X)
		c.cond(e.Y)
	case ir.Lt, ir.Le, ir.Gt, ir.Ge, ir.EqInt, ir.EqBool, ir.EqPkt, ir.EqSbf:
		c.expr(e.X)
		c.expr(e.Y)
		c.charge(vm.OpJlt)
	case ir.SbfBool:
		c.expr(e.X)
		c.charge(vm.OpJsbz)
	case ir.ListEmpty, ir.QEmpty:
		c.emptyOperand(e)
		c.charge(vm.OpJz)
	default:
		c.expr(e)
		c.charge(vm.OpJz)
	}
}

// emptyOperand charges what EMPTY tests against zero: the list mask or
// the queue's first matching packet.
func (c *coster) emptyOperand(e *ir.Expr) {
	if e.Op == ir.ListEmpty {
		c.expr(e.X)
	} else {
		c.queueTop(e.Q)
	}
}

// expr charges an expression compiled into a register.
func (c *coster) expr(e *ir.Expr) {
	switch e.Op {
	case ir.Const:
		c.imm(1)
	case ir.Reg, ir.Global:
		c.charge(vm.OpLoadReg)
	case ir.Local:
	case ir.And, ir.Or:
		c.expr(e.X)
		c.expr(e.Y)
		c.charge(vm.OpMov, vm.OpJz, vm.OpMov)
	case ir.Subflows:
		c.imm(1)
		c.subflowLoop(func() { c.charge(vm.OpBitSet) })
	case ir.ListFilter:
		c.expr(e.X)
		c.imm(1)
		c.subflowLoop(func() {
			c.charge(vm.OpJbc, vm.OpSbfRef, vm.OpBitSet)
			c.cond(e.Fn.Body)
		})
	case ir.ListMin, ir.ListMax:
		c.expr(e.X)
		c.imm(2)
		c.subflowLoop(func() {
			c.charge(vm.OpJbc, vm.OpSbfRef)
			c.expr(e.Fn.Body)
			c.imm(1)
			c.take()
		})
	case ir.ListGet:
		c.expr(e.X)
		c.expr(e.Y)
		c.imm(1)
		c.charge(vm.OpPopcnt, vm.OpJz, vm.OpMod, vm.OpAdd, vm.OpMod)
		c.imm(2)
		c.subflowLoop(func() { c.charge(vm.OpJbc, vm.OpJne, vm.OpSbfRef, vm.OpAdd) })
	case ir.ListEmpty, ir.QEmpty:
		c.emptyOperand(e)
		c.imm(1)
		c.charge(vm.OpEq)
	case ir.QTop:
		c.queueTop(e.Q)
	case ir.QPop:
		c.queueTop(e.Q)
		c.charge(vm.OpJz, vm.OpPop)
	case ir.QCount:
		c.imm(2)
		c.queueScan(e.Q, false, func() { c.charge(vm.OpAdd) })
	case ir.QBytes:
		c.imm(1)
		c.queueScan(e.Q, false, func() { c.charge(vm.OpPktProp, vm.OpAdd) })
	case ir.QMin, ir.QMax:
		c.imm(3)
		c.queueScan(e.Q, false, func() {
			c.charge(vm.OpMov)
			c.expr(e.Fn.Body)
			c.take()
		})
	default:
		// One ALU or property instruction over its operands: unary
		// ones cost like a negation, binary ones like an addition.
		c.expr(e.X)
		if e.Y == nil {
			c.charge(vm.OpNeg)
			return
		}
		c.expr(e.Y)
		c.charge(vm.OpAdd)
	}
}
