package vm

import (
	"fmt"

	"progmp/internal/lang/ir"
	"progmp/internal/lang/types"
	"progmp/internal/runtime"
)

// irIns is an instruction over unlimited virtual registers, produced by
// the cross-compiler from the lowered program (package ir) and consumed
// by the register allocator.
type irIns struct {
	op   Op
	dst  int
	a, b int
	k    int64
}

// unrollLimit bounds full loop unrolling under constant-subflow-count
// specialization.
const unrollLimit = 8

// Options configure compilation.
type Options struct {
	// SubflowCount, when >= 0, specializes the program for exactly
	// that many subflows: subflow loops unroll and SUBFLOWS masks
	// become constants. The VM refuses to run a specialized program
	// against a mismatched environment; callers keep a generic
	// fallback (§4.1: "the JIT-compiler optimizes for a constant
	// number of subflows and returns to the original version
	// otherwise").
	SubflowCount int
	// DisableOptimizations skips the IR passes (jump threading,
	// dead-code elimination); for ablation measurements only.
	DisableOptimizations bool
}

// Compile lowers a checked program to verified bytecode.
func Compile(info *types.Info, opts Options) (*Program, error) {
	if opts.SubflowCount >= 0 && opts.SubflowCount > runtime.MaxSubflows {
		return nil, fmt.Errorf("vm: cannot specialize for %d subflows (max %d)", opts.SubflowCount, runtime.MaxSubflows)
	}
	c := emitProgram(ir.Lower(info), opts.SubflowCount)
	if !opts.DisableOptimizations {
		c.code = optimize(c.code)
	}
	// Optimization may introduce vregs (hoisted canonical constants).
	nv := c.nv
	if mv := maxVreg(c.code); mv > nv {
		nv = mv
	}
	insns, spills, err := allocate(c.code, nv)
	if err != nil {
		return nil, fmt.Errorf("vm: register allocation: %w", err)
	}
	prog := &Program{Insns: insns, SpillSlots: spills, SpecializedSubflows: opts.SubflowCount}
	if err := Verify(prog); err != nil {
		return nil, fmt.Errorf("vm: verification: %w", err)
	}
	return prog, nil
}

// Nest is a loop nesting: an instruction inside S subflow loops and N
// queue scans.
type Nest struct{ S, N int }

// StepCounts emits prog generically (no specialization, optimization
// or register allocation) and returns, per loop nesting, the most steps
// one pass over the instructions at that nesting can take once
// compiled. Each instruction counts stepCost, plus one step for every
// constant load to pay for the preamble the optimizer hoists repeated
// constants into; the optimizer otherwise only removes or cheapens
// instructions on any path. Both arms of an IF count. A generic
// subflow loop's header and body sit one S deeper, and its header runs
// at most S+1 times per entry with S subflows; a queue scan's sit one N
// deeper and run at most N+1 times with N visible packets, except a
// scan that stops at its first packet and has no predicates, which
// makes one pass. So with S subflows and at most N packets per queue,
// the steps at nesting {s, n} repeat at most (S+1)^s·(N+1)^n times, for
// the generic program and every specialization of it alike.
func StepCounts(prog *ir.Program) map[Nest]int64 {
	return emitProgram(prog, -1).steps
}

// emitProgram runs the code generator over prog, specialized for
// constN subflows when constN >= 0.
func emitProgram(prog *ir.Program, constN int) *comp {
	c := &comp{slots: make([]int, prog.NumSlots), constN: constN, steps: make(map[Nest]int64)}
	for i := range c.slots {
		c.slots[i] = -1
	}
	c.block(prog.Body)
	c.emit(OpReturn, 0, 0, 0, 0)
	return c
}

type comp struct {
	code []irIns
	nv   int
	// slots maps each frame slot to the vreg holding its value, -1
	// before the first binding. Queue-typed VARs have no slot value:
	// the lowering already resolved their chains.
	slots  []int
	constN int
	// nest is the loop nesting of the next instruction; steps counts
	// the emitted steps per nesting (see StepCounts).
	nest  Nest
	steps map[Nest]int64
}

func (c *comp) newv() int {
	v := c.nv
	c.nv++
	return v
}

func (c *comp) emit(op Op, dst, a, b int, k int64) int {
	c.code = append(c.code, irIns{op: op, dst: dst, a: a, b: b, k: k})
	c.steps[c.nest] += stepCost(op)
	// A constant load also pays its share of the hoisted preamble.
	if op == OpMovImm {
		c.steps[c.nest]++
	}
	return len(c.code) - 1
}

// here returns the index of the next instruction to be emitted.
func (c *comp) here() int { return len(c.code) }

// patch fixes the jump at index at to target the next instruction.
func (c *comp) patch(at int) {
	c.code[at].k = int64(len(c.code) - at - 1)
}

// patchTo fixes the jump at index at to target instruction index to.
func (c *comp) patchTo(at, to int) {
	c.code[at].k = int64(to - at - 1)
}

// imm materializes a constant in a fresh vreg.
func (c *comp) imm(v int64) int {
	dst := c.newv()
	c.emit(OpMovImm, dst, 0, 0, v)
	return dst
}

// ---- Statements ----

func (c *comp) block(stmts []ir.Stmt) {
	for _, s := range stmts {
		c.stmt(s)
	}
}

func (c *comp) stmt(s ir.Stmt) {
	switch s := s.(type) {
	case *ir.If:
		jfs := c.condJumps(s.Cond, false)
		c.block(s.Then)
		if len(s.Else) == 0 {
			for _, j := range jfs {
				c.patch(j)
			}
			return
		}
		jend := c.emit(OpJmp, 0, 0, 0, 0)
		for _, j := range jfs {
			c.patch(j)
		}
		c.block(s.Else)
		c.patch(jend)
	case *ir.Let:
		c.slots[s.Slot] = c.expr(s.Init)
	case *ir.Foreach:
		mask := c.expr(s.List)
		c.forEachSubflowIdx(func(idx int) {
			skip := c.emit(OpJbc, 0, mask, idx, 0)
			// A fresh loop variable per unrolled iteration keeps each
			// OpSbfRef single-assignment, so constant folding turns it
			// into a hoistable constant handle.
			loopVar := c.newv()
			c.slots[s.Slot] = loopVar
			c.emit(OpSbfRef, loopVar, idx, 0, 0)
			c.block(s.Body)
			c.patch(skip)
		})
	case *ir.Set:
		v := c.expr(s.Value)
		op := OpStoreReg
		if s.Global {
			op = OpStoreGlobal
		}
		c.emit(op, 0, v, 0, int64(s.Reg))
	case *ir.Push:
		target := c.expr(s.Target)
		arg := c.expr(s.Pkt)
		c.emit(OpPush, 0, target, arg, 0)
	case *ir.Drop:
		arg := c.expr(s.Pkt)
		c.emit(OpDrop, 0, arg, 0, 0)
	case *ir.Return:
		c.emit(OpReturn, 0, 0, 0, 0)
	default:
		panic(fmt.Sprintf("vm: unhandled statement %T", s))
	}
}

// forEachSubflowIdx emits a loop (or, under specialization with a small
// constant count, an unrolled sequence) whose body receives a vreg
// holding the current subflow index.
func (c *comp) forEachSubflowIdx(body func(idxVreg int)) {
	if c.constN >= 0 && c.constN <= unrollLimit {
		for i := 0; i < c.constN; i++ {
			body(c.imm(int64(i)))
		}
		return
	}
	count := c.subflowCount()
	idx := c.imm(0)
	one := c.imm(1)
	c.nest.S++
	loopStart := c.here()
	inRange := c.newv()
	c.emit(OpLt, inRange, idx, count, 0)
	jdone := c.emit(OpJz, 0, inRange, 0, 0)
	body(idx)
	c.emit(OpAdd, idx, idx, one, 0)
	back := c.emit(OpJmp, 0, 0, 0, 0)
	c.nest.S--
	c.patchTo(back, loopStart)
	c.patch(jdone)
}

// subflowCount yields a vreg with the number of subflows.
func (c *comp) subflowCount() int {
	if c.constN >= 0 {
		return c.imm(int64(c.constN))
	}
	dst := c.newv()
	c.emit(OpSbfCount, dst, 0, 0, 0)
	return dst
}

// ---- Expressions ----

// valueOps maps the IR's pure value ops to their instruction.
var valueOps = map[ir.Op]Op{
	ir.Neg: OpNeg, ir.Not: OpNot,
	ir.Add: OpAdd, ir.Sub: OpSub, ir.Mul: OpMul, ir.Div: OpDiv, ir.Mod: OpMod,
	ir.Lt: OpLt, ir.Le: OpLe, ir.Gt: OpGt, ir.Ge: OpGe,
	ir.SbfInt: OpSbfIntProp, ir.SbfBool: OpSbfBoolProp, ir.PktInt: OpPktProp,
	ir.HasWindow: OpHasWnd, ir.SentOn: OpSentOn, ir.ListCount: OpPopcnt,
}

// expr compiles e into a vreg. Every value is a canonical int64: ints,
// bools as 0/1, subflow and packet handles, and subflow lists as
// membership masks, so one integer comparison implements every
// equality.
func (c *comp) expr(e *ir.Expr) int {
	switch e.Op {
	case ir.Const:
		return c.imm(e.K)
	case ir.Reg, ir.Global:
		op := OpLoadReg
		if e.Op == ir.Global {
			op = OpLoadGlobal
		}
		dst := c.newv()
		c.emit(op, dst, 0, 0, e.K)
		return dst
	case ir.Local:
		return c.slots[e.K]
	case ir.And, ir.Or:
		// Short-circuit into a result vreg.
		dst := c.newv()
		x := c.expr(e.X)
		c.emit(OpMov, dst, x, 0, 0)
		var skip int
		if e.Op == ir.And {
			skip = c.emit(OpJz, 0, dst, 0, 0)
		} else {
			skip = c.emit(OpJnz, 0, dst, 0, 0)
		}
		y := c.expr(e.Y)
		c.emit(OpMov, dst, y, 0, 0)
		c.patch(skip)
		return dst
	case ir.EqInt, ir.EqBool, ir.EqPkt, ir.EqSbf:
		x := c.expr(e.X)
		y := c.expr(e.Y)
		dst := c.newv()
		if e.K == 1 {
			c.emit(OpNe, dst, x, y, 0)
		} else {
			c.emit(OpEq, dst, x, y, 0)
		}
		return dst
	case ir.Subflows:
		if c.constN >= 0 {
			var m int64
			if c.constN > 0 {
				m = int64((uint64(1) << uint(c.constN)) - 1)
			}
			return c.imm(m)
		}
		mask := c.imm(0)
		c.forEachSubflowIdx(func(idx int) {
			c.emit(OpBitSet, mask, mask, idx, 0)
		})
		return mask
	case ir.ListFilter:
		return c.listFilter(e)
	case ir.ListMin, ir.ListMax:
		return c.listMinMax(e)
	case ir.ListGet:
		return c.listGet(e)
	case ir.ListEmpty, ir.QEmpty:
		// EMPTY is a zero test on the mask or top-packet handle.
		v := c.emptyOperand(e)
		zero := c.imm(0)
		dst := c.newv()
		c.emit(OpEq, dst, v, zero, 0)
		return dst
	case ir.QTop:
		return c.queueTop(e.Q)
	case ir.QPop:
		top := c.queueTop(e.Q)
		skip := c.emit(OpJz, 0, top, 0, 0)
		c.emit(OpPop, 0, top, 0, int64(e.Q.ID))
		c.patch(skip)
		return top
	case ir.QCount:
		return c.queueCount(e.Q)
	case ir.QBytes:
		return c.queueBytes(e.Q)
	case ir.QMin, ir.QMax:
		return c.queueMinMax(e)
	}
	op, ok := valueOps[e.Op]
	if !ok {
		panic(fmt.Sprintf("vm: unhandled op %d", e.Op))
	}
	x := c.expr(e.X)
	y := 0
	if e.Y != nil {
		y = c.expr(e.Y)
	}
	dst := c.newv()
	c.emit(op, dst, x, y, e.K)
	return dst
}

// emptyOperand compiles the receiver an EMPTY tests against zero: the
// list mask, or the queue's first matching packet.
func (c *comp) emptyOperand(e *ir.Expr) int {
	if e.Op == ir.ListEmpty {
		return c.expr(e.X)
	}
	return c.queueTop(e.Q)
}

// condJumps compiles e in branch context: the emitted code jumps when
// the condition's truth equals want and falls through otherwise. The
// returned instruction indices are the pending jumps, to be patched to
// the branch target. NOT and short-circuit AND/OR become pure control
// flow — no boolean is materialized — and comparisons emit fused
// compare-and-branch instructions directly.
func (c *comp) condJumps(e *ir.Expr, want bool) []int {
	switch e.Op {
	case ir.Const:
		if (e.K != 0) == want {
			return []int{c.emit(OpJmp, 0, 0, 0, 0)}
		}
		return nil
	case ir.Not:
		return c.condJumps(e.X, !want)
	case ir.And, ir.Or:
		// Jumping on the truth of an AND (dually, the falsity of an
		// OR) must prove both operands: the first operand's
		// complement jumps land on the overall fall-through.
		if (e.Op == ir.And) == want {
			around := c.condJumps(e.X, !want)
			out := c.condJumps(e.Y, want)
			for _, j := range around {
				c.patch(j)
			}
			return out
		}
		out := c.condJumps(e.X, want)
		return append(out, c.condJumps(e.Y, want)...)
	case ir.Lt, ir.Le, ir.Gt, ir.Ge:
		x := c.expr(e.X)
		y := c.expr(e.Y)
		return []int{c.emit(cmpJump(e.Op, want), 0, x, y, 0)}
	case ir.EqInt, ir.EqBool, ir.EqPkt, ir.EqSbf:
		x := c.expr(e.X)
		y := c.expr(e.Y)
		op := OpJeq
		if (e.K == 0) != want {
			op = OpJne
		}
		return []int{c.emit(op, 0, x, y, 0)}
	case ir.SbfBool:
		// The hottest predicate shape: test a subflow boolean
		// property and branch, with no materialized 0/1.
		recv := c.expr(e.X)
		op := OpJsbnz
		if !want {
			op = OpJsbz
		}
		return []int{c.emit(op, 0, recv, int(e.K), 0)}
	case ir.ListEmpty, ir.QEmpty:
		v := c.emptyOperand(e)
		if want {
			return []int{c.emit(OpJz, 0, v, 0, 0)}
		}
		return []int{c.emit(OpJnz, 0, v, 0, 0)}
	}
	v := c.expr(e)
	if want {
		return []int{c.emit(OpJnz, 0, v, 0, 0)}
	}
	return []int{c.emit(OpJz, 0, v, 0, 0)}
}

// cmpJump maps an ordering comparison to the fused jump that is taken
// when the comparison's truth equals want.
func cmpJump(op ir.Op, want bool) Op {
	switch op {
	case ir.Lt:
		if want {
			return OpJlt
		}
		return OpJge
	case ir.Le:
		if want {
			return OpJle
		}
		return OpJgt
	case ir.Gt:
		if want {
			return OpJgt
		}
		return OpJle
	default: // ir.Ge
		if want {
			return OpJge
		}
		return OpJlt
	}
}

// ---- Subflow lists ----

// listFilter materializes X.FILTER(Fn) as a membership bitmask over
// subflow indices.
func (c *comp) listFilter(e *ir.Expr) int {
	inner := c.expr(e.X)
	mask := c.imm(0)
	c.forEachSubflowIdx(func(idx int) {
		skip := c.emit(OpJbc, 0, inner, idx, 0)
		param := c.newv()
		c.slots[e.Fn.Slot] = param
		c.emit(OpSbfRef, param, idx, 0, 0)
		fails := c.condJumps(e.Fn.Body, false)
		c.emit(OpBitSet, mask, mask, idx, 0)
		for _, at := range fails {
			c.patch(at)
		}
		c.patch(skip)
	})
	return mask
}

// listMinMax selects the subflow with minimal/maximal key from a list.
func (c *comp) listMinMax(e *ir.Expr) int {
	mask := c.expr(e.X)
	best := c.imm(0)    // NULL
	bestKey := c.imm(0) // irrelevant while best == 0
	c.forEachSubflowIdx(func(idx int) {
		skip := c.emit(OpJbc, 0, mask, idx, 0)
		param := c.newv()
		c.slots[e.Fn.Slot] = param
		c.emit(OpSbfRef, param, idx, 0, 0)
		key := c.expr(e.Fn.Body)
		c.takeBetter(e.Op == ir.ListMax, best, bestKey, param, key, -1)
		c.patch(skip)
	})
	return best
}

// takeBetter emits the MIN/MAX selection step: best, bestKey = cand,
// key when best is NULL or key strictly beats bestKey, so ties keep
// the first element. zero holds 0, or is -1 to materialize it here.
func (c *comp) takeBetter(greatest bool, best, bestKey, cand, key, zero int) {
	isNull := c.newv()
	if zero < 0 {
		zero = c.imm(0)
	}
	c.emit(OpEq, isNull, best, zero, 0)
	jTake := c.emit(OpJnz, 0, isNull, 0, 0)
	better := c.newv()
	if greatest {
		c.emit(OpGt, better, key, bestKey, 0)
	} else {
		c.emit(OpLt, better, key, bestKey, 0)
	}
	jSkip := c.emit(OpJz, 0, better, 0, 0)
	c.patch(jTake)
	c.emit(OpMov, best, cand, 0, 0)
	c.emit(OpMov, bestKey, key, 0, 0)
	c.patch(jSkip)
}

// listGet implements GET(i) with wrap-around indexing over the list's
// set bits (ir.Wrap; NULL when empty).
func (c *comp) listGet(e *ir.Expr) int {
	mask := c.expr(e.X)
	rawIdx := c.expr(e.Y)

	res := c.imm(0)
	n := c.newv()
	c.emit(OpPopcnt, n, mask, 0, 0)
	jEmpty := c.emit(OpJz, 0, n, 0, 0)
	// want = ((rawIdx % n) + n) % n
	t := c.newv()
	c.emit(OpMod, t, rawIdx, n, 0)
	c.emit(OpAdd, t, t, n, 0)
	c.emit(OpMod, t, t, n, 0)
	// Walk set bits counting down.
	seen := c.imm(0)
	one := c.imm(1)
	c.forEachSubflowIdx(func(idx int) {
		skip := c.emit(OpJbc, 0, mask, idx, 0)
		notTarget := c.emit(OpJne, 0, seen, t, 0)
		c.emit(OpSbfRef, res, idx, 0, 0)
		c.patch(notTarget)
		c.emit(OpAdd, seen, seen, one, 0)
		c.patch(skip)
	})
	c.patch(jEmpty)
	return res
}

// ---- Queues ----

// queueScan emits a loop over the visible packets of q that pass its
// predicates. body receives the vreg holding the current packet handle
// and returns the jump indices to patch to the loop end ("break"
// sites). stops reports that body breaks on every pass: without
// predicates, such a scan makes a single pass.
func (c *comp) queueScan(q *ir.Queue, stops bool, body func(pkt int) (breaks []int)) {
	pos := c.imm(-1)
	loops := !stops || len(q.Preds) > 0
	if loops {
		c.nest.N++
	}
	loopStart := c.here()
	c.emit(OpQNext, pos, pos, 0, int64(q.ID))
	negative := c.newv()
	zero := c.imm(0)
	c.emit(OpLt, negative, pos, zero, 0)
	jdone := c.emit(OpJnz, 0, negative, 0, 0)
	pkt := c.newv()
	c.emit(OpPktRef, pkt, pos, 0, int64(q.ID))
	var continues []int
	for _, lam := range q.Preds {
		// A predicate scanned again (through a queue variable) reuses
		// its parameter vreg.
		if c.slots[lam.Slot] < 0 {
			c.slots[lam.Slot] = c.newv()
		}
		c.emit(OpMov, c.slots[lam.Slot], pkt, 0, 0)
		continues = append(continues, c.condJumps(lam.Body, false)...)
	}
	breaks := body(pkt)
	for _, at := range continues {
		c.patch(at)
	}
	back := c.emit(OpJmp, 0, 0, 0, 0)
	if loops {
		c.nest.N--
	}
	c.patchTo(back, loopStart)
	c.patch(jdone)
	for _, at := range breaks {
		c.patch(at)
	}
}

// queueTop returns a vreg holding the first matching packet (0 = NULL).
func (c *comp) queueTop(q *ir.Queue) int {
	res := c.imm(0)
	c.queueScan(q, true, func(pkt int) []int {
		c.emit(OpMov, res, pkt, 0, 0)
		return []int{c.emit(OpJmp, 0, 0, 0, 0)}
	})
	return res
}

// queueCount returns a vreg holding the number of matching packets.
func (c *comp) queueCount(q *ir.Queue) int {
	n := c.imm(0)
	one := c.imm(1)
	c.queueScan(q, false, func(int) []int {
		c.emit(OpAdd, n, n, one, 0)
		return nil
	})
	return n
}

// queueBytes returns a vreg holding the byte total of matching packets.
func (c *comp) queueBytes(q *ir.Queue) int {
	n := c.imm(0)
	c.queueScan(q, false, func(pkt int) []int {
		sz := c.newv()
		c.emit(OpPktProp, sz, pkt, 0, int64(runtime.PktSize))
		c.emit(OpAdd, n, n, sz, 0)
		return nil
	})
	return n
}

// queueMinMax selects the packet with minimal/maximal key.
func (c *comp) queueMinMax(e *ir.Expr) int {
	param := c.newv()
	c.slots[e.Fn.Slot] = param
	best := c.imm(0)
	bestKey := c.imm(0)
	zero := c.imm(0)
	c.queueScan(e.Q, false, func(pkt int) []int {
		c.emit(OpMov, param, pkt, 0, 0)
		key := c.expr(e.Fn.Body)
		c.takeBetter(e.Op == ir.QMax, best, bestKey, pkt, key, zero)
		return nil
	})
	return best
}
