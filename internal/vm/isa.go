// Package vm implements the bytecode execution back-end for ProgMP
// scheduler programs — the Go analogue of the paper's in-kernel eBPF
// JIT ("alternative 3" in §4.1). The cross-compiler translates the
// lowered IR (package ir) to a register-based 64-bit ISA, allocates
// physical registers with a second-chance-binpacking linear scan (Traub
// et al., PLDI 1998, as cited by the paper), verifies the result
// eBPF-style, and executes it in a threaded dispatch loop.
//
// All values are int64, as on an eBPF machine. Object references are
// encoded handles:
//
//   - subflow:  index into Env.SubflowViews + 1 (0 is NULL)
//   - packet:   (queueID+1)<<32 | (position in base queue + 1) (0 is NULL)
//   - subflow list: 64-bit membership mask over subflow indices
//   - queue:    no run-time value; the lowering resolves every queue
//     expression to a base queue and a filter chain, which the
//     cross-compiler inlines into each scan
package vm

import (
	"fmt"
	"math/bits"
	"strings"

	"progmp/internal/lang/ir"
	"progmp/internal/obs"
)

// Op is a bytecode opcode.
type Op uint8

// Opcodes. Dst/A/B address physical registers; K is an immediate whose
// meaning depends on the opcode (constant, ProgMP register index,
// property index, queue id, jump offset, or spill slot).
const (
	OpNop Op = iota

	// Moves and ALU.
	OpMovImm // dst = K
	OpMov    // dst = a
	OpAdd    // dst = a + b
	OpSub    // dst = a - b
	OpMul    // dst = a * b
	OpDiv    // dst = a / b (0 when b == 0: no exceptions by design)
	OpMod    // dst = a % b (0 when b == 0)
	OpNeg    // dst = -a
	OpNot    // dst = boolean !a (a is 0/1)

	// Comparisons produce 0/1.
	OpEq // dst = a == b
	OpNe // dst = a != b
	OpLt // dst = a < b
	OpLe // dst = a <= b
	OpGt // dst = a > b
	OpGe // dst = a >= b

	// Bit operations (used for subflow-list masks).
	OpPopcnt  // dst = popcount(a)
	OpBitSet  // dst = a | (1 << b)
	OpBitTest // dst = (a >> b) & 1

	// Control flow. Jump offsets in K are relative to the next
	// instruction (pc += K after increment).
	OpJmp    // pc += K
	OpJz     // if a == 0: pc += K
	OpJnz    // if a != 0: pc += K
	OpReturn // halt

	// ProgMP register file (R1..R8).
	OpLoadReg  // dst = Regs[K]
	OpStoreReg // Regs[K] = a

	// Shared global register file (G1..G8), execution-local copy.
	OpLoadGlobal  // dst = Globals[K]
	OpStoreGlobal // Globals[K] = a (marks the register dirty for publication)

	// Environment queries.
	OpSbfCount    // dst = number of subflows
	OpSbfRef      // dst = subflow handle for index a (no bounds check; compiler guards)
	OpSbfIntProp  // dst = subflow(a).Ints[K]; 0 when a is NULL
	OpSbfBoolProp // dst = subflow(a).Bools[K]; 0 when a is NULL
	OpHasWnd      // dst = subflow(a).HasWindowFor(packet(b))
	OpPktProp     // dst = packet(a).Ints[K]; 0 when a is NULL
	OpSentOn      // dst = packet(a).SentOn(subflow(b))
	OpQNext       // dst = next visible position in queue K strictly after position a (start with a = -1); -1 when exhausted
	OpPktRef      // dst = packet handle for queue K, position a

	// Side effects (recorded in the action queue).
	OpPop  // pop packet(a) from queue K
	OpPush // push packet(b) on subflow(a)
	OpDrop // drop packet(a)

	// Spill traffic inserted by the register allocator.
	OpLoadSlot  // dst = spill[K]
	OpStoreSlot // spill[K] = a

	// Fused compare-and-branch, produced by the optimizer from a
	// comparison whose only consumer is the adjacent conditional jump
	// (the dominant pattern in compiled scheduler code: every FILTER
	// predicate, IF condition and loop bound lowers to compare+branch).
	OpJeq // if a == b: pc += K
	OpJne // if a != b: pc += K
	OpJlt // if a < b:  pc += K
	OpJle // if a <= b: pc += K
	OpJgt // if a > b:  pc += K
	OpJge // if a >= b: pc += K

	// Zero-compare branches, the immediate-free special case the
	// optimizer reaches for when one comparison operand is a known
	// constant zero (queue-scan exhaustion tests, NULL checks).
	OpJltz // if a < 0:  pc += K
	OpJlez // if a <= 0: pc += K
	OpJgtz // if a > 0:  pc += K
	OpJgez // if a >= 0: pc += K

	// Fused environment-test branches, emitted by the compiler's
	// branch-context condition codegen for the two hottest predicate
	// shapes in scheduler code: subflow boolean properties (THROTTLED,
	// BACKUP, CWND_AVAILABLE, ...) and subflow-mask membership tests.
	// For OpJsbz/OpJsbnz the B field is the property index, not a
	// register (K already carries the jump offset).
	OpJsbz  // if subflow(a) is NULL or !Bools[B]: pc += K
	OpJsbnz // if subflow(a) is non-NULL and Bools[B]: pc += K
	OpJbc   // if (a >> b) & 1 == 0: pc += K
	OpJbs   // if (a >> b) & 1 == 1: pc += K

	opCount
)

var opNames = [...]string{
	OpNop:         "nop",
	OpMovImm:      "movimm",
	OpMov:         "mov",
	OpAdd:         "add",
	OpSub:         "sub",
	OpMul:         "mul",
	OpDiv:         "div",
	OpMod:         "mod",
	OpNeg:         "neg",
	OpNot:         "not",
	OpEq:          "eq",
	OpNe:          "ne",
	OpLt:          "lt",
	OpLe:          "le",
	OpGt:          "gt",
	OpGe:          "ge",
	OpPopcnt:      "popcnt",
	OpBitSet:      "bitset",
	OpBitTest:     "bittest",
	OpJmp:         "jmp",
	OpJz:          "jz",
	OpJnz:         "jnz",
	OpReturn:      "return",
	OpLoadReg:     "loadreg",
	OpStoreReg:    "storereg",
	OpLoadGlobal:  "loadglobal",
	OpStoreGlobal: "storeglobal",
	OpSbfCount:    "sbfcount",
	OpSbfRef:      "sbfref",
	OpSbfIntProp:  "sbfprop",
	OpSbfBoolProp: "sbfbool",
	OpHasWnd:      "haswnd",
	OpPktProp:     "pktprop",
	OpSentOn:      "senton",
	OpQNext:       "qnext",
	OpPktRef:      "pktref",
	OpPop:         "pop",
	OpPush:        "push",
	OpDrop:        "drop",
	OpLoadSlot:    "loadslot",
	OpStoreSlot:   "storeslot",
	OpJeq:         "jeq",
	OpJne:         "jne",
	OpJlt:         "jlt",
	OpJle:         "jle",
	OpJgt:         "jgt",
	OpJge:         "jge",
	OpJltz:        "jltz",
	OpJlez:        "jlez",
	OpJgtz:        "jgtz",
	OpJgez:        "jgez",
	OpJsbz:        "jsbz",
	OpJsbnz:       "jsbnz",
	OpJbc:         "jbc",
	OpJbs:         "jbs",
}

// String returns the opcode mnemonic.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// value is the result a pure instruction writes to dst, given the
// values of its operand registers a and b and its immediate k; ok is
// false for every op whose result depends on more (the environment, the
// register files, spill slots) or that writes nothing. It is the one
// definition of instruction arithmetic for constant folding and
// ExecProfile; Exec inlines the same cases for speed, and a table test
// ties the two together.
func value(op Op, a, b, k int64) (v int64, ok bool) {
	switch op {
	case OpMovImm:
		return k, true
	case OpMov:
		return a, true
	case OpAdd:
		return a + b, true
	case OpSub:
		return a - b, true
	case OpMul:
		return a * b, true
	case OpDiv:
		return ir.DivInt(a, b), true
	case OpMod:
		return ir.ModInt(a, b), true
	case OpNeg:
		return -a, true
	case OpNot:
		return b2i(a == 0), true
	case OpEq:
		return b2i(a == b), true
	case OpNe:
		return b2i(a != b), true
	case OpLt:
		return b2i(a < b), true
	case OpLe:
		return b2i(a <= b), true
	case OpGt:
		return b2i(a > b), true
	case OpGe:
		return b2i(a >= b), true
	case OpPopcnt:
		return int64(bits.OnesCount64(uint64(a))), true
	case OpBitSet:
		return a | int64(uint64(1)<<uint(b&63)), true
	case OpBitTest:
		return (a >> uint(b&63)) & 1, true
	case OpSbfRef:
		// The handle encoding is pure arithmetic (index + 1).
		return a + 1, true
	}
	return 0, false
}

// taken reports whether a jump whose condition reads only its operand
// registers a and b transfers control; ok is false for every other op,
// including the subflow-property branches OpJsbz and OpJsbnz. Like
// value, it defines the branch conditions for folding and profiling.
func taken(op Op, a, b int64) (take, ok bool) {
	switch op {
	case OpJmp:
		return true, true
	case OpJz:
		return a == 0, true
	case OpJnz:
		return a != 0, true
	case OpJeq:
		return a == b, true
	case OpJne:
		return a != b, true
	case OpJlt:
		return a < b, true
	case OpJle:
		return a <= b, true
	case OpJgt:
		return a > b, true
	case OpJge:
		return a >= b, true
	case OpJltz:
		return a < 0, true
	case OpJlez:
		return a <= 0, true
	case OpJgtz:
		return a > 0, true
	case OpJgez:
		return a >= 0, true
	case OpJbc:
		return (a>>uint(b&63))&1 == 0, true
	case OpJbs:
		return (a>>uint(b&63))&1 != 0, true
	}
	return false, false
}

// Instr is one fixed-width instruction.
type Instr struct {
	Op   Op
	Dst  uint8
	A, B uint8
	K    int64
}

// String disassembles the instruction.
func (in Instr) String() string {
	switch in.Op {
	case OpNop, OpReturn:
		return in.Op.String()
	case OpMovImm:
		return fmt.Sprintf("%s r%d, %d", in.Op, in.Dst, in.K)
	case OpMov, OpNeg, OpNot, OpPopcnt:
		return fmt.Sprintf("%s r%d, r%d", in.Op, in.Dst, in.A)
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpBitSet, OpBitTest, OpHasWnd, OpSentOn:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Dst, in.A, in.B)
	case OpJmp:
		return fmt.Sprintf("%s %+d", in.Op, in.K)
	case OpJz, OpJnz, OpJltz, OpJlez, OpJgtz, OpJgez:
		return fmt.Sprintf("%s r%d, %+d", in.Op, in.A, in.K)
	case OpJeq, OpJne, OpJlt, OpJle, OpJgt, OpJge, OpJbc, OpJbs:
		return fmt.Sprintf("%s r%d, r%d, %+d", in.Op, in.A, in.B, in.K)
	case OpJsbz, OpJsbnz:
		return fmt.Sprintf("%s r%d, #%d, %+d", in.Op, in.A, in.B, in.K)
	case OpLoadReg, OpLoadSlot, OpLoadGlobal:
		return fmt.Sprintf("%s r%d, [%d]", in.Op, in.Dst, in.K)
	case OpStoreReg, OpStoreSlot, OpStoreGlobal:
		return fmt.Sprintf("%s [%d], r%d", in.Op, in.K, in.A)
	case OpSbfCount:
		return fmt.Sprintf("%s r%d", in.Op, in.Dst)
	case OpSbfRef:
		return fmt.Sprintf("%s r%d, r%d", in.Op, in.Dst, in.A)
	case OpSbfIntProp, OpSbfBoolProp, OpPktProp:
		return fmt.Sprintf("%s r%d, r%d, #%d", in.Op, in.Dst, in.A, in.K)
	case OpQNext:
		return fmt.Sprintf("%s r%d, r%d, q%d", in.Op, in.Dst, in.A, in.K)
	case OpPktRef:
		return fmt.Sprintf("%s r%d, r%d, q%d", in.Op, in.Dst, in.A, in.K)
	case OpPop:
		return fmt.Sprintf("%s r%d, q%d", in.Op, in.A, in.K)
	case OpPush:
		return fmt.Sprintf("%s r%d, r%d", in.Op, in.A, in.B)
	case OpDrop:
		return fmt.Sprintf("%s r%d", in.Op, in.A)
	}
	return fmt.Sprintf("%s r%d, r%d, r%d, %d", in.Op, in.Dst, in.A, in.B, in.K)
}

// NumPhysRegs is the size of the physical register file. Two registers
// are reserved by the allocator as spill scratch.
const NumPhysRegs = 16

// Program is a verified, executable bytecode program.
type Program struct {
	Insns      []Instr
	SpillSlots int
	// SpecializedSubflows is the constant subflow count this program
	// was specialized for, or -1 for the generic version (§4.1,
	// "constant subflow number" optimization).
	SpecializedSubflows int
	// StepCounter, when non-nil, accumulates executed instruction
	// counts (the "steps" metric). Left nil by default so the hot path
	// pays only an inlined nil check at exit.
	StepCounter *obs.Counter
}

// Disassemble renders the program, one instruction per line.
func (p *Program) Disassemble() string {
	var b strings.Builder
	for i, in := range p.Insns {
		fmt.Fprintf(&b, "%4d: %s\n", i, in)
	}
	return b.String()
}
