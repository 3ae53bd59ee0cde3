// Package ir is the lowered form of a checked ProgMP program and the one
// place where the language's meaning is settled before execution. The
// interpreter, the closure compiler, the VM code generator and the
// analyzer's step-bound model read only this form.
//
// Lowering decides, once:
//
//   - identifiers: every VAR, FOREACH variable and lambda parameter is a
//     frame slot index;
//   - members: every member access is one Op from a closed set, chosen
//     by the receiver type (subflow list or packet queue);
//   - equality: one Op per operand type;
//   - queues: a queue expression, FILTER chains through queue variables
//     included, resolves to a static Queue (base queue and predicate
//     list). Single assignment and pure predicates make this exact, so
//     queue values never exist at run time and FILTER stays lazy: the
//     predicates run on each packet a scan visits;
//   - integer constants: arithmetic over constants folds here, with the
//     same DivInt and ModInt the back-ends run.
//
// The run-time corners each have one definition that every back-end
// uses: division by zero yields 0 (DivInt, ModInt), GET wraps
// out-of-range indices (Wrap), MIN/MAX ties resolve to the first
// element (Beats), and property reads on NULL yield 0 or false (the
// runtime views' Int and Bool accessors). The VM code generator emits
// Wrap and Beats as bytecode of the same shape.
package ir

import (
	"fmt"

	"progmp/internal/lang"
	"progmp/internal/lang/types"
	"progmp/internal/runtime"
)

// Program is a lowered scheduler program.
type Program struct {
	Body     []Stmt
	NumSlots int
}

// Stmt is one of *If, *Let, *Foreach, *Set, *Push, *Drop and *Return.
type Stmt interface{ stmt() }

// If runs Then when Cond holds and Else otherwise; ELSE IF chains nest
// in Else.
type If struct {
	Cond       *Expr
	Then, Else []Stmt
}

// Let binds a VAR to its slot. Queue-typed VARs lower to nothing.
type Let struct {
	Slot int
	Init *Expr
}

// Foreach binds each subflow of List to Slot in turn and runs Body.
type Foreach struct {
	Slot int
	List *Expr
	Body []Stmt
}

// Set writes register Reg (SET), or shared global Reg when Global
// (GSET).
type Set struct {
	Reg    int
	Global bool
	Value  *Expr
}

// Push sends Pkt on Target; Site is the statement's source line.
type Push struct {
	Target, Pkt *Expr
	Site        int32
}

// Drop discards Pkt; Site is the statement's source line.
type Drop struct {
	Pkt  *Expr
	Site int32
}

// Return ends the execution.
type Return struct{}

func (*If) stmt()      {}
func (*Let) stmt()     {}
func (*Foreach) stmt() {}
func (*Set) stmt()     {}
func (*Push) stmt()    {}
func (*Drop) stmt()    {}
func (*Return) stmt()  {}

// Op selects an expression's meaning.
type Op uint8

// Expression ops. Bools are 0 or 1 where a back-end needs a number.
const (
	Const      Op = iota // K; NULL and FALSE are 0, TRUE is 1
	Reg                  // register R(K+1)
	Global               // shared global G(K+1)
	Local                // frame slot K
	Neg                  // -X
	Not                  // !X
	Add                  // X + Y
	Sub                  // X - Y
	Mul                  // X * Y
	Div                  // X / Y, 0 when Y is 0 (DivInt)
	Mod                  // X % Y, 0 when Y is 0 (ModInt)
	Lt                   // X < Y
	Le                   // X <= Y
	Gt                   // X > Y
	Ge                   // X >= Y
	And                  // X AND Y, short-circuit
	Or                   // X OR Y, short-circuit
	EqInt                // X == Y over ints; X != Y when K is 1
	EqBool               // X == Y over bools; X != Y when K is 1
	EqPkt                // X == Y over packets; X != Y when K is 1
	EqSbf                // X == Y over subflows; X != Y when K is 1
	SbfInt               // subflow X's int property K; 0 when X is NULL
	SbfBool              // subflow X's bool property K; false when X is NULL
	PktInt               // packet X's int property K; 0 when X is NULL
	HasWindow            // X.HAS_WINDOW_FOR(Y); false when either is NULL
	SentOn               // X.SENT_ON(Y); false when either is NULL
	Subflows             // SUBFLOWS
	ListFilter           // X.FILTER(Fn), materialized in order
	ListMin              // X.MIN(Fn): first subflow with the least key, NULL when empty
	ListMax              // X.MAX(Fn): first subflow with the greatest key, NULL when empty
	ListEmpty            // X.EMPTY
	ListCount            // X.COUNT
	ListGet              // X.GET(Y): index Wrap(Y, COUNT), NULL when empty
	QTop                 // Q.TOP: first matching packet, NULL when none
	QPop                 // Q.POP(): QTop, then popped when not NULL; Site is the source line
	QEmpty               // Q.EMPTY: QTop is NULL
	QCount               // Q.COUNT: matching packets
	QBytes               // Q.BYTES: summed size of matching packets
	QMin                 // Q.MIN(Fn): first matching packet with the least key, NULL when none
	QMax                 // Q.MAX(Fn): first matching packet with the greatest key, NULL when none
)

// Expr is one expression node; Op says which fields are set.
type Expr struct {
	Op   Op
	Type types.Type // result type
	K    int64      // constant, register index, slot, property or negation
	X, Y *Expr      // operands; X is the receiver of list and property ops
	Fn   *Lambda    // argument of FILTER, MIN and MAX
	Q    *Queue     // receiver of the Q* ops
	Site int32
}

// Lambda is a FILTER, MIN or MAX argument: Body evaluated with the
// element bound to Slot.
type Lambda struct {
	Slot int
	Body *Expr
}

// Queue is a resolved queue expression: the packets of base queue ID
// for which every predicate in Preds holds, applied innermost first.
type Queue struct {
	ID    runtime.QueueID
	Preds []*Lambda
}

// DivInt is the language's division: 0 when y is 0, never a fault.
//
//progmp:hotpath
//progmp:deterministic
func DivInt(x, y int64) int64 {
	if y == 0 {
		return 0
	}
	return x / y
}

// ModInt is the language's remainder: 0 when y is 0.
//
//progmp:hotpath
//progmp:deterministic
func ModInt(x, y int64) int64 {
	if y == 0 {
		return 0
	}
	return x % y
}

// Beats reports whether a MIN candidate's key (a MAX candidate's when
// greatest) displaces the best so far. Only a strictly better key does,
// so ties resolve to the first element.
//
//progmp:hotpath
//progmp:deterministic
func Beats(greatest bool, key, best int64) bool {
	if greatest {
		return key > best
	}
	return key < best
}

// Wrap maps a GET index onto a list of n > 0 elements: indices out of
// range wrap around in both directions.
//
//progmp:hotpath
//progmp:deterministic
func Wrap(i, n int64) int64 { return ((i % n) + n) % n }

// Lower translates a checked program into its IR.
func Lower(info *types.Info) *Program {
	l := &lowerer{info: info, queues: make(map[*types.Symbol]*Queue)}
	return &Program{Body: l.block(info.Prog.Stmts, nil), NumSlots: info.NumSlots}
}

type lowerer struct {
	info *types.Info
	// queues holds the resolved definition of each queue-typed VAR.
	queues map[*types.Symbol]*Queue
	// nodes is the unused tail of the current expression chunk: nodes
	// live as long as the program, so they are allocated in bulk.
	nodes []Expr
}

func (l *lowerer) node(typ types.Type) *Expr {
	if len(l.nodes) == 0 {
		l.nodes = make([]Expr, 64)
	}
	n := &l.nodes[0]
	n.Type = typ
	l.nodes = l.nodes[1:]
	return n
}

func (l *lowerer) block(stmts []lang.Stmt, out []Stmt) []Stmt {
	for _, s := range stmts {
		out = l.stmt(s, out)
	}
	return out
}

func (l *lowerer) stmt(s lang.Stmt, out []Stmt) []Stmt {
	switch s := s.(type) {
	case *lang.BlockStmt:
		return l.block(s.Stmts, out)
	case *lang.IfStmt:
		n := &If{Cond: l.expr(s.Cond), Then: l.block(s.Then.Stmts, nil)}
		if s.Else != nil {
			n.Else = l.stmt(s.Else, nil)
		}
		return append(out, n)
	case *lang.VarDecl:
		sym := l.info.Defs[s]
		if sym.Type == types.PacketQueue {
			l.queues[sym] = l.queue(s.Init)
			return out
		}
		return append(out, &Let{Slot: sym.Slot, Init: l.expr(s.Init)})
	case *lang.ForeachStmt:
		list := l.expr(s.Iter)
		return append(out, &Foreach{Slot: l.info.Defs[s].Slot, List: list, Body: l.block(s.Body.Stmts, nil)})
	case *lang.SetStmt:
		return append(out, &Set{Reg: s.Reg, Value: l.expr(s.Value)})
	case *lang.GSetStmt:
		return append(out, &Set{Reg: s.Reg, Global: true, Value: l.expr(s.Value)})
	case *lang.PushStmt:
		return append(out, &Push{Target: l.expr(s.Target), Pkt: l.expr(s.Arg), Site: int32(s.PushAt.Line)})
	case *lang.DropStmt:
		return append(out, &Drop{Pkt: l.expr(s.Arg), Site: int32(s.DropPos.Line)})
	case *lang.ReturnStmt:
		return append(out, &Return{})
	}
	panic(fmt.Sprintf("ir: unhandled statement %T", s))
}

var (
	binaryOps = map[lang.Kind]Op{
		lang.PLUS: Add, lang.MINUS: Sub, lang.STAR: Mul, lang.SLASH: Div, lang.PERCENT: Mod,
		lang.LT: Lt, lang.LTE: Le, lang.GT: Gt, lang.GTE: Ge, lang.AND: And, lang.OR: Or,
	}
	eqOps = map[types.Type]Op{
		types.Int: EqInt, types.Bool: EqBool, types.Packet: EqPkt, types.Subflow: EqSbf,
	}
	entityQueues = map[lang.EntityKind]runtime.QueueID{
		lang.EntityQ: runtime.QueueSend, lang.EntityQU: runtime.QueueUnacked, lang.EntityRQ: runtime.QueueReinject,
	}
)

func (l *lowerer) expr(e lang.Expr) *Expr {
	n := l.node(l.info.TypeOf(e))
	switch e := e.(type) {
	case *lang.NumberLit:
		n.K = e.Val
	case *lang.BoolLit:
		if e.Val {
			n.K = 1
		}
	case *lang.NullLit:
	case *lang.RegExpr:
		n.Op, n.K = Reg, int64(e.Index)
	case *lang.GlobalExpr:
		n.Op, n.K = Global, int64(e.Index)
	case *lang.Ident:
		n.Op, n.K = Local, int64(l.info.Uses[e].Slot)
	case *lang.EntityExpr:
		n.Op = Subflows
	case *lang.UnaryExpr:
		n.Op, n.X = Not, l.expr(e.X)
		if e.Op == lang.MINUS {
			n.Op = Neg
		}
	case *lang.BinaryExpr:
		n.X, n.Y = l.expr(e.X), l.expr(e.Y)
		switch e.Op {
		case lang.EQ:
			n.Op = eqOps[n.X.Type]
		case lang.NEQ:
			n.Op, n.K = eqOps[n.X.Type], 1
		default:
			n.Op = binaryOps[e.Op]
		}
	case *lang.MemberExpr:
		l.member(n, e)
	default:
		panic(fmt.Sprintf("ir: unhandled expression %T", e))
	}
	fold(n)
	return n
}

// fold turns integer arithmetic over constants into its value.
func fold(n *Expr) {
	if n.Op < Neg || n.Op > Mod || n.Op == Not || n.X.Op != Const || (n.Y != nil && n.Y.Op != Const) {
		return
	}
	x, y := n.X.K, int64(0)
	if n.Y != nil {
		y = n.Y.K
	}
	switch n.Op {
	case Neg:
		x = -x
	case Add:
		x += y
	case Sub:
		x -= y
	case Mul:
		x *= y
	case Div:
		x = DivInt(x, y)
	case Mod:
		x = ModInt(x, y)
	}
	*n = Expr{Op: Const, Type: types.Int, K: x}
}

func (l *lowerer) member(n *Expr, e *lang.MemberExpr) {
	m := l.info.Members[e]
	onQueue := m.RecvType == types.PacketQueue
	if onQueue {
		n.Q = l.queue(e.Recv)
	} else {
		n.X = l.expr(e.Recv)
	}
	if len(e.Args) == 1 {
		if lam, ok := e.Args[0].(*lang.Lambda); ok {
			n.Fn = l.lambda(lam)
		} else {
			n.Y = l.expr(e.Args[0])
		}
	}
	pick := func(list, queue Op) Op {
		if onQueue {
			return queue
		}
		return list
	}
	switch m.Kind {
	case types.MemberSbfInt:
		n.Op, n.K = SbfInt, int64(m.SbfInt)
	case types.MemberSbfBool:
		n.Op, n.K = SbfBool, int64(m.SbfBool)
	case types.MemberPktInt:
		n.Op, n.K = PktInt, int64(m.PktInt)
	case types.MemberHasWindowFor:
		n.Op = HasWindow
	case types.MemberSentOn:
		n.Op = SentOn
	case types.MemberFilter:
		n.Op = ListFilter
	case types.MemberMin:
		n.Op = pick(ListMin, QMin)
	case types.MemberMax:
		n.Op = pick(ListMax, QMax)
	case types.MemberEmpty:
		n.Op = pick(ListEmpty, QEmpty)
	case types.MemberCount:
		n.Op = pick(ListCount, QCount)
	case types.MemberGet:
		n.Op = ListGet
	case types.MemberTop:
		n.Op = QTop
	case types.MemberPop:
		n.Op, n.Site = QPop, int32(e.NamePos.Line)
	case types.MemberBytes:
		n.Op = QBytes
	default:
		panic(fmt.Sprintf("ir: unhandled member %s", e.Name))
	}
}

func (l *lowerer) lambda(lam *lang.Lambda) *Lambda {
	return &Lambda{Slot: l.info.Defs[lam].Slot, Body: l.expr(lam.Body)}
}

// queue resolves a queue-typed expression to its base queue and
// predicate chain.
func (l *lowerer) queue(e lang.Expr) *Queue {
	switch e := e.(type) {
	case *lang.EntityExpr:
		return &Queue{ID: entityQueues[e.Kind]}
	case *lang.Ident:
		return l.queues[l.info.Uses[e]]
	case *lang.MemberExpr:
		q := l.queue(e.Recv)
		preds := append(q.Preds[:len(q.Preds):len(q.Preds)], l.lambda(e.Args[0].(*lang.Lambda)))
		return &Queue{ID: q.ID, Preds: preds}
	}
	panic(fmt.Sprintf("ir: unhandled queue expression %T", e))
}
