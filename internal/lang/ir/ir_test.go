package ir

import (
	"testing"

	"progmp/internal/lang/types"
	"progmp/internal/runtime"
)

func lower(t *testing.T, src string) *Program {
	t.Helper()
	return Lower(types.MustCheck(src))
}

// setValue returns the value of the i-th statement, which must be a SET.
func setValue(t *testing.T, p *Program, i int) *Expr {
	t.Helper()
	s, ok := p.Body[i].(*Set)
	if !ok {
		t.Fatalf("statement %d is %T, want *Set", i, p.Body[i])
	}
	return s.Value
}

// Queue VARs lower to nothing; their uses resolve to the base queue and
// the predicate chain, innermost first, sharing the lambdas.
func TestLowerResolvesQueueChains(t *testing.T) {
	p := lower(t, `
VAR small = QU.FILTER(p => p.SIZE < 100);
VAR tiny = small.FILTER(p => p.SIZE < 55);
SET(R1, tiny.COUNT);
SET(R2, small.COUNT);
`)
	if len(p.Body) != 2 {
		t.Fatalf("got %d statements, want the 2 SETs", len(p.Body))
	}
	tiny, small := setValue(t, p, 0), setValue(t, p, 1)
	if tiny.Op != QCount || tiny.Q.ID != runtime.QueueUnacked || len(tiny.Q.Preds) != 2 {
		t.Fatalf("tiny.COUNT lowered to op %d on %v with %d predicates", tiny.Op, tiny.Q.ID, len(tiny.Q.Preds))
	}
	if len(small.Q.Preds) != 1 || small.Q.Preds[0] != tiny.Q.Preds[0] {
		t.Fatal("the chain through a queue variable does not share its definition's predicate")
	}
	if tiny.Q.Preds[1].Body.Y.K != 55 {
		t.Errorf("outermost predicate is not last: %+v", tiny.Q.Preds[1].Body)
	}
}

// Integer arithmetic over constants folds, with the language's
// division; comparisons and operands that are not constant stay.
func TestLowerFoldsConstants(t *testing.T) {
	p := lower(t, `
SET(R1, (2 + 3) * -4 / 0 + R2);
SET(R3, 7 % 0 - 9 / 2);
IF (1 < 2) { RETURN; }
`)
	sum := setValue(t, p, 0)
	if sum.Op != Add || sum.X.Op != Const || sum.X.K != 0 || sum.Y.Op != Reg {
		t.Errorf("(2 + 3) * -4 / 0 + R2 lowered to %+v", sum)
	}
	if c := setValue(t, p, 1); c.Op != Const || c.K != -4 {
		t.Errorf("7 %% 0 - 9 / 2 lowered to %+v, want Const -4", c)
	}
	if cond := p.Body[2].(*If).Cond; cond.Op != Lt {
		t.Errorf("1 < 2 lowered to op %d, want Lt", cond.Op)
	}
}

// Member ops follow the receiver type, equality ops the operand type.
func TestLowerPicksOpsByType(t *testing.T) {
	p := lower(t, `
VAR a = SUBFLOWS.EMPTY;
VAR b = RQ.EMPTY;
VAR c = Q.TOP != NULL;
VAR d = SUBFLOWS.GET(0) == NULL;
VAR e = a == b;
VAR f = SUBFLOWS.COUNT == Q.COUNT;
`)
	want := []struct {
		op Op
		k  int64
	}{{ListEmpty, 0}, {QEmpty, 0}, {EqPkt, 1}, {EqSbf, 0}, {EqBool, 0}, {EqInt, 0}}
	for i, w := range want {
		got := p.Body[i].(*Let).Init
		if got.Op != w.op || got.K != w.k {
			t.Errorf("statement %d lowered to op %d K %d, want op %d K %d", i, got.Op, got.K, w.op, w.k)
		}
	}
}
