package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Atomicmix flags mixed atomic/plain access: once any site in the module
// accesses a struct field (or package-level variable) through a raw
// sync/atomic function, every other access to that field anywhere in the
// module must be atomic too. This is the invariant the slot-lock and
// claim-word protocols depend on and that -race only checks for the
// schedules it happens to see: a single plain read of a claim word is a
// data race on every weakly-ordered target even when the test schedule
// never trips it.
//
// Fields of the sync/atomic wrapper types (atomic.Int64, atomic.Uint64,
// atomic.Pointer, ...) are safe by construction — their plain words are
// unexported — so the analyzer tracks only addresses passed to the raw
// functions (atomic.AddInt64(&s.f, ...) and friends). Known limits: an
// address smuggled through a helper (p := &s.f; atomic.AddInt64(p, 1)) is
// tracked at the smuggling site only, and initialization through a keyed
// composite literal is not flagged (a literal builds a private, not yet
// published value).
var Atomicmix = &Analyzer{
	Name: "atomicmix",
	Doc:  "every access to a sync/atomic-accessed field must be atomic",
	Run:  runAtomicmix,
}

// atomicTarget resolves the variable an atomic call operates on when arg
// has the form &expr with expr naming a struct field or package-level
// variable, along with the operand expression node.
func atomicTarget(info *types.Info, arg ast.Expr) (*types.Var, ast.Expr) {
	un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return nil, nil
	}
	operand := ast.Unparen(un.X)
	switch x := operand.(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj().(*types.Var), operand
		}
		if v, ok := info.Uses[x.Sel].(*types.Var); ok {
			return v, operand
		}
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			return v, operand
		}
	}
	return nil, nil
}

// trackable reports whether v is a variable atomicmix reasons about: a
// struct field, or a package-level variable, declared in module source.
func trackable(prog *Program, v *types.Var) bool {
	if v == nil || !prog.InModuleFile(v.Pos()) {
		return false
	}
	if v.IsField() {
		return true
	}
	return v.Parent() != nil && v.Parent().Parent() == types.Universe
}

func runAtomicmix(prog *Program, report ReportFunc) {
	type site struct {
		pos token.Position
	}
	atomicSites := map[string]site{} // decl position of var -> first atomic site
	operandNodes := map[ast.Expr]bool{}

	// Pass 1: collect every &field operand of a raw sync/atomic call.
	for _, pkg := range prog.Module {
		info := pkg.Info
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(info, call)
				if fn == nil || pkgPathOf(fn) != "sync/atomic" {
					return true
				}
				for _, arg := range call.Args {
					v, operand := atomicTarget(info, arg)
					if operand != nil {
						operandNodes[operand] = true
					}
					if trackable(prog, v) {
						key := prog.Fset.Position(v.Pos()).String()
						if _, ok := atomicSites[key]; !ok {
							atomicSites[key] = site{pos: prog.Fset.Position(call.Pos())}
						}
					}
				}
				return true
			})
		}
	}
	if len(atomicSites) == 0 {
		return
	}

	// Pass 2: every other appearance of a tracked variable is a plain
	// access and gets flagged.
	for _, pkg := range prog.Module {
		info := pkg.Info
		for _, file := range pkg.Files {
			consumed := map[*ast.Ident]bool{}
			ast.Inspect(file, func(n ast.Node) bool {
				var v *types.Var
				var at ast.Expr
				switch x := n.(type) {
				case *ast.SelectorExpr:
					consumed[x.Sel] = true
					if operandNodes[x] {
						return true
					}
					if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
						v, at = sel.Obj().(*types.Var), x
					} else if u, ok := info.Uses[x.Sel].(*types.Var); ok {
						v, at = u, x
					}
				case *ast.Ident:
					if consumed[x] || operandNodes[ast.Expr(x)] {
						return true
					}
					if u, ok := info.Uses[x].(*types.Var); ok {
						v, at = u, x
					}
				default:
					return true
				}
				if v == nil || !trackable(prog, v) {
					return true
				}
				key := prog.Fset.Position(v.Pos()).String()
				if s, ok := atomicSites[key]; ok {
					report(at.Pos(), "plain access to %q, which is accessed atomically (e.g. at %s:%d); every access must use sync/atomic",
						v.Name(), shortPath(s.pos.Filename), s.pos.Line)
				}
				return true
			})
		}
	}
}
