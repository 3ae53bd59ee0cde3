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
// evaluated at a reference depth). The VM code generator counts the
// steps of each loop nesting as it emits the program (vm.StepCounts);
// the model only weighs them by how often a nesting can repeat. The
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

// programCost bounds the steps of one execution of prog: the steps
// the code generator counts at nesting {s, n} repeat at most
// (S+1)^s·(N+1)^n times, one pass per subflow or visible packet plus
// the exit test.
func programCost(prog *ir.Program) poly {
	total := constPoly(0)
	for nest, steps := range vm.StepCounts(prog) {
		p := constPoly(steps)
		for i := 0; i < nest.S; i++ {
			p = p.mul(sTerm.addConst(1))
		}
		for i := 0; i < nest.N; i++ {
			p = p.mul(nTerm.addConst(1))
		}
		total = total.add(p)
	}
	return total
}
