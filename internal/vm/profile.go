package vm

import (
	"fmt"
	"sort"
	"strings"

	"progmp/internal/lang/ir"
	"progmp/internal/runtime"
)

// Profile is the result of a counting execution: per-instruction hit
// counts over one or more runs — the analogue of the paper's
// proc-based "performance profiling traces based on the control flow
// representation of the scheduler specification" (§4.1).
type Profile struct {
	prog *Program
	// Hits[i] counts executions of instruction i.
	Hits []uint64
	// Steps is the total number of executed instructions.
	Steps uint64
	// Runs counts accumulated executions.
	Runs int
}

// NewProfile prepares a profile collector for p.
func NewProfile(p *Program) *Profile {
	return &Profile{prog: p, Hits: make([]uint64, len(p.Insns))}
}

// ExecProfile runs one execution of p against env, accumulating
// per-instruction counts. It mirrors Program.Exec semantics exactly
// (same graceful arithmetic, same step budget) but pays the counting
// overhead, so it is meant for development, not the data path.
func (pr *Profile) ExecProfile(env *runtime.Env) error {
	p := pr.prog
	if p.SpecializedSubflows >= 0 && len(env.SubflowViews) != p.SpecializedSubflows {
		return ErrSpecializationMismatch
	}
	var regs [NumPhysRegs]int64
	var spills []int64
	if p.SpillSlots > 0 {
		spills = make([]int64, p.SpillSlots)
	}
	insns := p.Insns
	steps := uint64(0)
	for pc := 0; pc < len(insns); pc++ {
		steps++
		pr.Hits[pc]++
		in := &insns[pc]
		switch in.Op {
		case OpNop:
		case OpMovImm:
			regs[in.Dst] = in.K
		case OpMov:
			regs[in.Dst] = regs[in.A]
		case OpAdd:
			regs[in.Dst] = regs[in.A] + regs[in.B]
		case OpSub:
			regs[in.Dst] = regs[in.A] - regs[in.B]
		case OpMul:
			regs[in.Dst] = regs[in.A] * regs[in.B]
		case OpDiv:
			regs[in.Dst] = ir.DivInt(regs[in.A], regs[in.B])
		case OpMod:
			regs[in.Dst] = ir.ModInt(regs[in.A], regs[in.B])
		case OpNeg:
			regs[in.Dst] = -regs[in.A]
		case OpNot:
			regs[in.Dst] = b2i(regs[in.A] == 0)
		case OpEq:
			regs[in.Dst] = b2i(regs[in.A] == regs[in.B])
		case OpNe:
			regs[in.Dst] = b2i(regs[in.A] != regs[in.B])
		case OpLt:
			regs[in.Dst] = b2i(regs[in.A] < regs[in.B])
		case OpLe:
			regs[in.Dst] = b2i(regs[in.A] <= regs[in.B])
		case OpGt:
			regs[in.Dst] = b2i(regs[in.A] > regs[in.B])
		case OpGe:
			regs[in.Dst] = b2i(regs[in.A] >= regs[in.B])
		case OpPopcnt:
			regs[in.Dst] = popcount(regs[in.A])
		case OpBitSet:
			regs[in.Dst] = regs[in.A] | int64(uint64(1)<<uint(regs[in.B]&63))
		case OpBitTest:
			regs[in.Dst] = (regs[in.A] >> uint(regs[in.B]&63)) & 1
		case OpJmp:
			pc += int(in.K)
			if in.K < 0 && steps > MaxSteps {
				goto budget
			}
		case OpJz:
			if regs[in.A] == 0 {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJnz:
			if regs[in.A] != 0 {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJeq:
			if regs[in.A] == regs[in.B] {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJne:
			if regs[in.A] != regs[in.B] {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJlt:
			if regs[in.A] < regs[in.B] {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJle:
			if regs[in.A] <= regs[in.B] {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJgt:
			if regs[in.A] > regs[in.B] {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJge:
			if regs[in.A] >= regs[in.B] {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJltz:
			if regs[in.A] < 0 {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJlez:
			if regs[in.A] <= 0 {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJgtz:
			if regs[in.A] > 0 {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJgez:
			if regs[in.A] >= 0 {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJsbz:
			if !sbfView(env, regs[in.A]).Bool(runtime.SubflowBoolProp(in.B)) {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJsbnz:
			if sbfView(env, regs[in.A]).Bool(runtime.SubflowBoolProp(in.B)) {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJbc:
			if (regs[in.A]>>uint(regs[in.B]&63))&1 == 0 {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpJbs:
			if (regs[in.A]>>uint(regs[in.B]&63))&1 != 0 {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
		case OpReturn:
			pr.Steps += steps
			pr.Runs++
			return nil
		case OpLoadReg:
			regs[in.Dst] = env.Reg(int(in.K))
		case OpStoreReg:
			env.SetReg(int(in.K), regs[in.A])
		case OpLoadGlobal:
			regs[in.Dst] = env.Global(int(in.K))
		case OpStoreGlobal:
			env.SetGlobal(int(in.K), regs[in.A])
		case OpSbfCount:
			regs[in.Dst] = int64(len(env.SubflowViews))
		case OpSbfRef:
			regs[in.Dst] = regs[in.A] + 1
		case OpSbfIntProp:
			regs[in.Dst] = sbfView(env, regs[in.A]).Int(runtime.SubflowIntProp(in.K))
		case OpSbfBoolProp:
			regs[in.Dst] = b2i(sbfView(env, regs[in.A]).Bool(runtime.SubflowBoolProp(in.K)))
		case OpHasWnd:
			regs[in.Dst] = b2i(sbfView(env, regs[in.A]).HasWindowFor(pktView(env, regs[in.B])))
		case OpPktProp:
			regs[in.Dst] = pktView(env, regs[in.A]).Int(runtime.PacketIntProp(in.K))
		case OpSentOn:
			regs[in.Dst] = b2i(pktView(env, regs[in.A]).SentOn(sbfView(env, regs[in.B])))
		case OpQNext:
			// Mirrors Exec: a nil queue reads as exhausted, never a crash.
			if q := env.Queue(runtime.QueueID(in.K)); q != nil {
				regs[in.Dst] = int64(q.NextVisible(int(regs[in.A])))
			} else {
				regs[in.Dst] = -1
			}
		case OpPktRef:
			regs[in.Dst] = (in.K+1)<<32 | (regs[in.A] + 1)
		case OpPop:
			env.Site = int32(pc)
			env.Pop(runtime.QueueID(in.K), pktView(env, regs[in.A]))
		case OpPush:
			env.Site = int32(pc)
			env.Push(sbfView(env, regs[in.A]), pktView(env, regs[in.B]))
		case OpDrop:
			env.Site = int32(pc)
			env.Drop(pktView(env, regs[in.A]))
		case OpLoadSlot:
			regs[in.Dst] = spills[in.K]
		case OpStoreSlot:
			spills[in.K] = regs[in.A]
		default:
			// Mirrors Exec: executed steps are credited even when the
			// program faults on an invalid opcode.
			pr.Steps += steps
			return fmt.Errorf("vm: invalid opcode %d at pc %d", int(in.Op), pc)
		}
	}
	pr.Steps += steps
	pr.Runs++
	return nil
budget:
	pr.Steps += steps
	return ErrStepBudget
}

func popcount(v int64) int64 {
	var n int64
	u := uint64(v)
	for u != 0 {
		u &= u - 1
		n++
	}
	return n
}

// Report renders the profile: every instruction annotated with its hit
// count, followed by the hottest instructions.
func (pr *Profile) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d run(s), %d instructions executed (%.1f per run)\n",
		pr.Runs, pr.Steps, float64(pr.Steps)/float64(max(1, pr.Runs)))
	for i, in := range pr.prog.Insns {
		fmt.Fprintf(&b, "%10d  %4d: %s\n", pr.Hits[i], i, in)
	}
	type hot struct {
		idx  int
		hits uint64
	}
	hots := make([]hot, 0, len(pr.Hits))
	for i, h := range pr.Hits {
		if h > 0 {
			hots = append(hots, hot{idx: i, hits: h})
		}
	}
	sort.Slice(hots, func(i, j int) bool { return hots[i].hits > hots[j].hits })
	b.WriteString("hottest:\n")
	for i, h := range hots {
		if i >= 5 {
			break
		}
		fmt.Fprintf(&b, "  %6.1f%%  %4d: %s\n",
			100*float64(h.hits)/float64(max(1, int(pr.Steps))), h.idx, pr.prog.Insns[h.idx])
	}
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
