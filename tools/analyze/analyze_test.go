package analyze

import (
	"strings"
	"testing"
)

// runFixture type-checks src as a standalone module-internal package
// and runs the named passes over it, returning the findings.
func runFixture(t *testing.T, passes []string, src string) []Diagnostic {
	t.Helper()
	suite, err := NewSuite(".")
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	pkg, err := suite.CheckSource("progmp/internal/fixture", map[string]string{"fixture.go": src})
	if err != nil {
		t.Fatalf("CheckSource: %v", err)
	}
	var as []*Analyzer
	for _, name := range passes {
		a := AnalyzerByName(name)
		if a == nil {
			t.Fatalf("unknown analyzer %q", name)
		}
		as = append(as, a)
	}
	return suite.Run([]*Package{pkg}, as)
}

// expect asserts that exactly the wanted message fragments are
// reported, in order.
func expect(t *testing.T, diags []Diagnostic, want ...string) {
	t.Helper()
	if len(diags) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(diags), len(want), render(diags))
	}
	for i, frag := range want {
		if !strings.Contains(diags[i].Message, frag) {
			t.Errorf("finding %d = %q, want fragment %q", i, diags[i].Message, frag)
		}
	}
}

func render(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}

func TestHotpathDiagnostics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "alloc constructs",
			src: `package fixture

type S struct{ xs []int }

//progmp:hotpath
func (s *S) Hot(n int) {
	s.xs = append(s.xs, n)
	m := make([]byte, n)
	_ = m
	p := new(int)
	_ = p
}
`,
			want: []string{"append may grow", "make allocates", "new allocates"},
		},
		{
			name: "callee propagation into unannotated same-package function",
			src: `package fixture

//progmp:hotpath
func Hot() { helper() }

func helper() { _ = map[int]int{} }
`,
			want: []string{"map literal allocates"},
		},
		{
			// A method of an instantiated generic type resolves to the
			// generic declaration, so its body is walked like any other
			// callee.
			name: "callee propagation into a generic method",
			src: `package fixture

type stack[T any] struct{ xs []T }

func (s *stack[T]) push(v T) { s.xs = append(s.xs, v) }

type S struct{ st stack[int] }

//progmp:hotpath
func (s *S) Hot(n int) { s.st.push(n) }
`,
			want: []string{"append may grow"},
		},
		{
			name: "interface boxing and closures",
			src: `package fixture

func sink(v any) { _ = v }

//progmp:hotpath
func Hot(n int) {
	sink(n)
	f := func() {}
	_ = f
}
`,
			want: []string{"boxes the value", "closure allocates"},
		},
		{
			name: "string concatenation and map write",
			src: `package fixture

type S struct{ m map[string]int }

//progmp:hotpath
func (s *S) Hot(a, b string) {
	s.m[a+b] = 1
}
`,
			want: []string{"map write may rehash", "string concatenation allocates"},
		},
		{
			name: "cross-package call needs annotation",
			src: `package fixture

import "strconv"

//progmp:hotpath
func Hot(n int) string { return strconv.Itoa(n) }
`,
			want: []string{"crosses a package boundary"},
		},
		{
			name: "suppression with reason silences one line",
			src: `package fixture

type S struct{ xs []int }

//progmp:hotpath
func (s *S) Hot(n int) {
	//progmp:ignore hotpath amortized: capacity retained
	s.xs = append(s.xs, n)
}
`,
			want: nil,
		},
		{
			name: "allowlisted time and atomic calls pass",
			src: `package fixture

import (
	"sync/atomic"
	"time"
)

type S struct{ n atomic.Int64 }

//progmp:hotpath
func (s *S) Hot() int64 {
	s.n.Add(time.Now().UnixNano())
	return s.n.Load()
}
`,
			want: nil,
		},
		{
			name: "callback literal passed as argument is walked inline",
			src: `package fixture

//progmp:hotpath
func each(xs []int, f func(int) bool) {
	for _, x := range xs {
		//progmp:ignore hotpath callback literal is checked inline at each call site
		if !f(x) {
			return
		}
	}
}

//progmp:hotpath
func Hot(xs []int) {
	n := 0
	each(xs, func(x int) bool { n += x; return true })
}
`,
			want: nil,
		},
		{
			name: "escaping callback literal inside argument is still flagged",
			src: `package fixture

//progmp:hotpath
func each(xs []int, f func(int) bool) {
	for _, x := range xs {
		//progmp:ignore hotpath callback literal is checked inline at each call site
		if !f(x) {
			return
		}
	}
}

//progmp:hotpath
func Hot(xs []int) {
	each(xs, func(x int) bool { return append(xs, x) != nil })
}
`,
			want: []string{"append may grow"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expect(t, runFixture(t, []string{"hotpath"}, tc.src), tc.want...)
		})
	}
}

func TestDeterministicDiagnostics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			// The seeded acceptance fixture: injecting a wall-clock
			// read into a //progmp:deterministic zone must fail the
			// analyzer (this is what CI's seeded-violation job pins).
			name: "time.Now in deterministic zone",
			src: `package fixture

import "time"

//progmp:deterministic
func Tick() int64 { return time.Now().UnixNano() }
`,
			want: []string{"time.Now"},
		},
		{
			name: "time.Now in a generic method",
			src: `package fixture

import "time"

type clock[T any] struct{ v T }

func (c *clock[T]) stamp() int64 { return time.Now().UnixNano() }

//progmp:deterministic
func Tick() int64 {
	var c clock[int]
	return c.stamp()
}
`,
			want: []string{"time.Now"},
		},
		{
			name: "global math/rand draw",
			src: `package fixture

import "math/rand"

//progmp:deterministic
func Draw() int64 { return rand.Int63() }
`,
			want: []string{"math/rand"},
		},
		{
			name: "seeded rand.Rand methods pass",
			src: `package fixture

import "math/rand"

type S struct{ rng *rand.Rand }

//progmp:deterministic
func (s *S) Draw() int64 { return s.rng.Int63() }
`,
			want: nil,
		},
		{
			name: "map iteration, select, go",
			src: `package fixture

//progmp:deterministic
func Walk(m map[int]int, ch chan int) {
	for k := range m {
		_ = k
	}
	select {
	case <-ch:
	default:
	}
	go func() {}()
}
`,
			want: []string{"map iteration order", "select", "goroutine"},
		},
		{
			name: "GOMAXPROCS",
			src: `package fixture

import "runtime"

//progmp:deterministic
func Procs() int { return runtime.GOMAXPROCS(0) }
`,
			want: []string{"runtime.GOMAXPROCS"},
		},
		{
			name: "callee propagation same package",
			src: `package fixture

import "time"

//progmp:deterministic
func Zone() { helper() }

func helper() { _ = time.Now() }
`,
			want: []string{"time.Now"},
		},
		{
			name: "suppressed map range with reason",
			src: `package fixture

//progmp:deterministic
func Walk(m map[int]int) int {
	n := 0
	//progmp:ignore deterministic iteration order is invisible: result is a commutative sum
	for _, v := range m {
		n += v
	}
	return n
}
`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expect(t, runFixture(t, []string{"deterministic"}, tc.src), tc.want...)
		})
	}
}

func TestEpochSafeDiagnostics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "write outside publish path",
			src: `package fixture

//progmp:epochshared
type Snap struct{ N int64 }

func Mutate(s *Snap) { s.N = 1 }
`,
			want: []string{"outside a //progmp:publish function"},
		},
		{
			name: "write inside publish passes",
			src: `package fixture

//progmp:epochshared
type Snap struct{ N int64 }

//progmp:publish
func Publish(s *Snap) { s.N = 1 }
`,
			want: nil,
		},
		{
			name: "write through nested pointer chain",
			src: `package fixture

//progmp:epochshared
type Snap struct{ Recs []Rec }

//progmp:epochshared
type Rec struct{ V int64 }

func Mutate(s *Snap) { s.Recs[0].V = 2 }
`,
			want: []string{"outside a //progmp:publish function"},
		},
		{
			name: "by-value copy is not a shared write",
			src: `package fixture

//progmp:epochshared
type Snap struct{ N int64 }

func Copy(s *Snap) Snap {
	c := *s
	c.N = 9
	return c
}
`,
			want: nil,
		},
		{
			name: "atomic and plain access mixed on one field",
			src: `package fixture

import "sync/atomic"

type S struct{ n int64 }

func Mixed(s *S) {
	atomic.AddInt64(&s.n, 1)
	s.n = 2
}
`,
			want: []string{"accessed via sync/atomic elsewhere"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expect(t, runFixture(t, []string{"epochsafe"}, tc.src), tc.want...)
		})
	}
}

func TestConventionDiagnostics(t *testing.T) {
	cases := []struct {
		name   string
		passes []string
		src    string
		want   []string
	}{
		{
			name:   "event literal without Kind",
			passes: []string{"eventkind"},
			src: `package fixture

import "progmp/internal/obs"

func Mk() obs.Event { return obs.Event{At: 0, Seq: 1} }
`,
			want: []string{"does not set Kind"},
		},
		{
			name:   "positional event literal",
			passes: []string{"eventkind"},
			src: `package fixture

import "progmp/internal/obs"

func Mk() obs.Event { return obs.Event{0, 1, 0, 0, 0, 0, 0, obs.EvPop} }
`,
			want: []string{"positional fields"},
		},
		{
			name:   "bad metric name through a named constant",
			passes: []string{"metricname"},
			src: `package fixture

import "progmp/internal/obs"

const badName = "Fleet.Conns"

func Reg(r *obs.Registry) { r.Counter(badName) }
`,
			want: []string{"not dot-separated lower_snake"},
		},
		{
			name:   "same name two kinds",
			passes: []string{"metrickind"},
			src: `package fixture

import "progmp/internal/obs"

func Reg(r *obs.Registry) {
	r.Counter("fleet.conns")
	r.Gauge("fleet.conns")
}
`,
			want: []string{"registered as"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expect(t, runFixture(t, tc.passes, tc.src), tc.want...)
		})
	}
}

// TestRepositoryIsAnalyzeClean is the self-check: `go test ./tools/...`
// fails if any package in the module has an outstanding finding, so the
// tree cannot drift from the invariants between CI runs.
func TestRepositoryIsAnalyzeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo load is slow; skipped in -short")
	}
	suite, err := NewSuite(".")
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	pkgs, err := suite.Load("./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags := suite.Run(pkgs, nil)
	if len(diags) > 0 {
		t.Errorf("repository has %d outstanding findings:\n%s", len(diags), render(diags))
	}
}
