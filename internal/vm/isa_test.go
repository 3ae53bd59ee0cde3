package vm

import (
	"math"
	"testing"

	"progmp/internal/envtest"
)

// TestExecAgreesWithValueAndTaken ties Exec's inlined instruction
// switch to value and taken, the definitions constant folding and
// ExecProfile use but Exec does not call. Every opcode either helper
// defines runs on edge operands through a hand-assembled program that
// stores the result, or which arm of the jump ran, in R1.
func TestExecAgreesWithValueAndTaken(t *testing.T) {
	edges := []int64{0, 1, -1, 63, 64, math.MinInt64, math.MaxInt64}
	run := func(op Op, a, b int64, insns []Instr) int64 {
		t.Helper()
		p := &Program{Insns: insns, SpecializedSubflows: -1}
		if err := Verify(p); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		env := envtest.TwoSubflowEnv(0)
		if err := p.Exec(env); err != nil {
			t.Fatalf("%s(%d, %d): %v", op, a, b, err)
		}
		profEnv := envtest.TwoSubflowEnv(0)
		if err := NewProfile(p).ExecProfile(profEnv); err != nil {
			t.Fatalf("%s(%d, %d) profiled: %v", op, a, b, err)
		}
		if got, prof := env.Reg(0), profEnv.Reg(0); got != prof {
			t.Fatalf("%s(%d, %d): Exec stores %d, ExecProfile %d", op, a, b, got, prof)
		}
		return env.Reg(0)
	}
	covered := 0
	for op := Op(0); op < opCount; op++ {
		_, isValue := value(op, 0, 0, 0)
		_, isJump := taken(op, 0, 0)
		if isValue || isJump {
			covered++
		}
		for _, a := range edges {
			for _, b := range edges {
				// The immediate is a, so movimm's result varies too.
				if want, ok := value(op, a, b, a); ok {
					got := run(op, a, b, []Instr{
						{Op: OpMovImm, Dst: 0, K: a},
						{Op: OpMovImm, Dst: 1, K: b},
						{Op: op, Dst: 2, A: 0, B: 1, K: a},
						{Op: OpStoreReg, A: 2, K: 0},
						{Op: OpReturn},
					})
					if got != want {
						t.Errorf("%s(%d, %d): Exec = %d, value = %d", op, a, b, got, want)
					}
				}
				if take, ok := taken(op, a, b); ok {
					got := run(op, a, b, []Instr{
						{Op: OpMovImm, Dst: 0, K: a},
						{Op: OpMovImm, Dst: 1, K: b},
						{Op: op, A: 0, B: 1, K: 2},
						{Op: OpMovImm, Dst: 2, K: 0},
						{Op: OpJmp, K: 1},
						{Op: OpMovImm, Dst: 2, K: 1},
						{Op: OpStoreReg, A: 2, K: 0},
						{Op: OpReturn},
					})
					if (got == 1) != take {
						t.Errorf("%s(%d, %d): Exec taken = %v, taken = %v", op, a, b, got == 1, take)
					}
				}
			}
		}
	}
	// 19 value ops (movimm, mov, ALU, compares, bit ops, sbfref) and 15
	// register-only jumps.
	if covered != 34 {
		t.Errorf("value and taken define %d opcodes, want 34", covered)
	}
}
