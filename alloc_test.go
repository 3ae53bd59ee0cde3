// Allocation regression guards for the Fig. 9 hot path: every
// scheduler back-end must execute with zero allocations in steady
// state (the arena owns all snapshot memory; executions only recycle
// it). CI additionally runs BenchmarkFig09_ExecutionOverhead with
// -benchmem and fails on any non-zero allocs/op, so both the tests and
// the benchmarks pin the same contract.
package progmp

import (
	"testing"

	"progmp/internal/core"
	"progmp/internal/interp"
	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/runtime"
	"progmp/internal/schedlib"
	"progmp/internal/vm"
)

func checkSource(src string) (*types.Info, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return types.Check(prog)
}

// chainedQueueFilter filters through a queue variable: the second
// FILTER's receiver is the variable, not an entity.
const chainedQueueFilter = `
VAR small = Q.FILTER(p => p.SIZE < 100);
VAR tiny = small.FILTER(p => p.SIZE < 55);
SET(R1, tiny.COUNT);
`

func TestExecZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only hold on production builds")
	}
	programs := []struct{ name, src string }{
		{"minRTT", schedlib.MinRTT},
		{"chainedQueueFilter", chainedQueueFilter},
	}
	type execer interface{ Exec(*runtime.Env) }
	backends := []struct {
		name  string
		build func(t *testing.T, name, src string) execer
	}{
		{"interpreter", func(t *testing.T, _, src string) execer {
			info, err := checkSource(src)
			if err != nil {
				t.Fatal(err)
			}
			return interp.New(info)
		}},
		{"compiled", func(t *testing.T, name, src string) execer {
			return core.MustLoad(name, src, core.BackendCompiled)
		}},
		{"vm", func(t *testing.T, name, src string) execer {
			s := core.MustLoad(name, src, core.BackendVM)
			s.SetSynchronousSpecialization(true)
			return s
		}},
		{"vm-raw", func(t *testing.T, _, src string) execer {
			info, err := checkSource(src)
			if err != nil {
				t.Fatal(err)
			}
			p, err := vm.Compile(info, vm.Options{SubflowCount: 2})
			if err != nil {
				t.Fatal(err)
			}
			return execAdapter{p}
		}},
	}
	for _, be := range backends {
		be := be
		t.Run(be.name, func(t *testing.T) {
			for _, prog := range programs {
				s := be.build(t, prog.name, prog.src)
				env := fig9Env(2)
				for i := 0; i < 64; i++ { // warm caches, pools, specialization
					env.Reset()
					s.Exec(env)
				}
				n := testing.AllocsPerRun(500, func() {
					env.Reset()
					s.Exec(env)
				})
				if n != 0 {
					t.Errorf("%s on %s: %.1f allocs per execution, want 0", be.name, prog.name, n)
				}
			}
		})
	}
}

// execAdapter gives the raw bytecode program the error-free Exec
// signature the table expects.
type execAdapter struct{ p *vm.Program }

func (a execAdapter) Exec(env *runtime.Env) { _ = a.p.Exec(env) }
