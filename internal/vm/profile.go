package vm

import (
	"fmt"
	"sort"
	"strings"

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
// per-instruction counts. It has Exec's semantics (the same step
// budget, the same faults) but takes instruction results and branch
// outcomes from value and taken instead of Exec's inlined switch, and
// pays the counting overhead, so it is meant for development, not the
// data path.
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
		a, b := regs[in.A], regs[in.B]
		if v, ok := value(in.Op, a, b, in.K); ok {
			regs[in.Dst] = v
			continue
		}
		take, jump := taken(in.Op, a, b)
		if in.Op == OpJsbz || in.Op == OpJsbnz {
			set := sbfView(env, a).Bool(runtime.SubflowBoolProp(in.B))
			take, jump = set == (in.Op == OpJsbnz), true
		}
		if jump {
			if take {
				pc += int(in.K)
				if in.K < 0 && steps > MaxSteps {
					goto budget
				}
			}
			continue
		}
		switch in.Op {
		case OpNop:
		case OpReturn:
			pr.Steps += steps
			pr.Runs++
			return nil
		case OpLoadReg:
			regs[in.Dst] = env.Reg(int(in.K))
		case OpStoreReg:
			env.SetReg(int(in.K), a)
		case OpLoadGlobal:
			regs[in.Dst] = env.Global(int(in.K))
		case OpStoreGlobal:
			env.SetGlobal(int(in.K), a)
		case OpSbfCount:
			regs[in.Dst] = int64(len(env.SubflowViews))
		case OpSbfIntProp:
			regs[in.Dst] = sbfView(env, a).Int(runtime.SubflowIntProp(in.K))
		case OpSbfBoolProp:
			regs[in.Dst] = b2i(sbfView(env, a).Bool(runtime.SubflowBoolProp(in.K)))
		case OpHasWnd:
			regs[in.Dst] = b2i(sbfView(env, a).HasWindowFor(pktView(env, b)))
		case OpPktProp:
			regs[in.Dst] = pktView(env, a).Int(runtime.PacketIntProp(in.K))
		case OpSentOn:
			regs[in.Dst] = b2i(pktView(env, a).SentOn(sbfView(env, b)))
		case OpQNext:
			// As in Exec: a nil queue reads as exhausted, never a crash.
			if q := env.Queue(runtime.QueueID(in.K)); q != nil {
				regs[in.Dst] = int64(q.NextVisible(int(a)))
			} else {
				regs[in.Dst] = -1
			}
		case OpPktRef:
			regs[in.Dst] = (in.K+1)<<32 | (a + 1)
		case OpPop:
			env.Site = int32(pc)
			env.Pop(runtime.QueueID(in.K), pktView(env, a))
		case OpPush:
			env.Site = int32(pc)
			env.Push(sbfView(env, a), pktView(env, b))
		case OpDrop:
			env.Site = int32(pc)
			env.Drop(pktView(env, a))
		case OpLoadSlot:
			regs[in.Dst] = spills[in.K]
		case OpStoreSlot:
			spills[in.K] = a
		default:
			// As in Exec: executed steps are credited even when the
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
