package analyze

import (
	"go/ast"
	"go/types"
)

// funcDecls indexes the package's top-level function declarations by
// their type-checker object, so traversal passes can walk into
// same-package callees.
func funcDecls(pkg *Package, files []*ast.File) map[*types.Func]*ast.FuncDecl {
	out := map[*types.Func]*ast.FuncDecl{}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				out[fn] = fd
			}
		}
	}
	return out
}

// callKind classifies a call expression.
type callKind int

const (
	callStatic     callKind = iota // resolved to a *types.Func
	callInterface                  // method call through an interface
	callDynamic                    // through a function value
	callBuiltin                    // len, append, make, ...
	callConversion                 // T(x)
)

// resolveCall classifies call and, for static and interface calls,
// returns the callee. A method of an instantiated generic type
// resolves to its generic declaration, whose body the traversal
// passes walk. (Identifiers of generic functions already resolve to
// the generic declaration.)
func resolveCall(info *types.Info, call *ast.CallExpr) (callKind, *types.Func, *types.Builtin) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return callConversion, nil, nil
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			return callStatic, obj, nil
		case *types.Builtin:
			return callBuiltin, nil, obj
		}
		return callDynamic, nil, nil
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				if types.IsInterface(sel.Recv()) {
					return callInterface, fn, nil
				}
				return callStatic, fn.Origin(), nil
			}
			return callDynamic, nil, nil // func-typed field
		}
		// Package-qualified call: pkg.F.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return callStatic, fn, nil
		}
		return callDynamic, nil, nil
	}
	return callDynamic, nil, nil
}

// fullName renders fn as a stable dotted name: "time.Now",
// "(*sync.Pool).Get", "(time.Duration).Seconds".
func fullName(fn *types.Func) string {
	return fn.FullName()
}

// propagation walks the bodies of directive-annotated root functions
// and, transitively, their same-package static callees. visit is
// called once per reachable function body; its return value is the
// list of same-package callees to continue into (the pass decides —
// e.g. hotpath stops at annotated callees because they are roots of
// their own traversal).
type traversal struct {
	pass    *Pass
	decls   map[*types.Func]*ast.FuncDecl
	visited map[*types.Func]bool
}

func newTraversal(p *Pass) *traversal {
	return &traversal{
		pass:    p,
		decls:   funcDecls(p.Pkg, p.Pkg.Files),
		visited: map[*types.Func]bool{},
	}
}

// roots returns the pass's package functions annotated with the
// directive selected by pick, in file order.
func (t *traversal) roots(pick func(Directives) bool) []*types.Func {
	var out []*types.Func
	for _, file := range t.pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := t.pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if pick(t.pass.Suite.FuncDirectives(fn)) {
				out = append(out, fn)
			}
		}
	}
	return out
}
