package analysis

import (
	"go/ast"
	"go/types"
)

// Parclosure flags the data-race shapes in closures handed to the
// parallel loop primitives — the bugs -race catches only when the
// schedule cooperates. A body passed to parallel.Blocks/BlocksIndexed/
// BlocksN/For/ForGrain or a PackInto predicate runs concurrently across
// block ranges, so it may write captured state only at slice indices
// derived from its own range: a write to a captured scalar, a captured
// map, or a slice index that does not mention any range-local variable is
// executed by every block at once.
//
// The core.Type2Hooks contract is checked the same way: a RunRegular
// closure is invoked in parallel over disjoint [lo, hi) blocks (so its
// writes must be range-derived), and IsSpecial is documented as "called
// concurrently ... it must not mutate shared state", so any captured
// write there is flagged. sync/atomic and parallel.PriorityCell updates
// are method/function calls, not assignments, and pass the check by
// construction. Known limits: bodies passed as named functions are not
// traced, and whether a range-derived index is actually disjoint across
// blocks is the caller's arithmetic, not the analyzer's.
var Parclosure = &Analyzer{
	Name: "parclosure",
	Doc:  "parallel loop bodies may write captured state only at range-derived indices",
	Run:  runParclosure,
}

// parBodyArgs maps parallel-package functions to the argument index of
// their concurrently-invoked closure.
var parBodyArgs = map[string]int{
	"For":           2,
	"ForGrain":      3,
	"Blocks":        3,
	"BlocksIndexed": 3,
	"BlocksN":       3,
	"PackInto":      2,
}

// hookFields are the core.Type2Hooks fields whose closures run
// concurrently; the value says whether any captured write is banned
// (IsSpecial) or only non-range-derived ones (RunRegular).
var hookFields = map[string]bool{
	"RunRegular": false,
	"IsSpecial":  true,
}

func runParclosure(prog *Program, report ReportFunc) {
	for _, pkg := range prog.Module {
		info := pkg.Info
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					fn := calleeFunc(info, x)
					if fn == nil || !isPkgNamed(pkgPathOf(fn), "parallel") {
						return true
					}
					idx, ok := parBodyArgs[fn.Name()]
					if !ok || idx >= len(x.Args) {
						return true
					}
					if lit, ok := ast.Unparen(x.Args[idx]).(*ast.FuncLit); ok {
						checkParBody(info, "parallel."+fn.Name()+" body", lit, false, report)
					}
				case *ast.CompositeLit:
					if !isType2Hooks(info, x) {
						return true
					}
					for _, elt := range x.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						key, ok := kv.Key.(*ast.Ident)
						if !ok {
							continue
						}
						banAll, hook := hookFields[key.Name]
						if !hook {
							continue
						}
						if lit, ok := ast.Unparen(kv.Value).(*ast.FuncLit); ok {
							checkParBody(info, "Type2Hooks."+key.Name, lit, banAll, report)
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range x.Lhs {
						sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
						if !ok || i >= len(x.Rhs) {
							continue
						}
						banAll, hook := hookFields[sel.Sel.Name]
						if !hook {
							continue
						}
						if tv, ok := info.Types[sel.X]; !ok || !isType2HooksType(tv.Type) {
							continue
						}
						if lit, ok := ast.Unparen(x.Rhs[i]).(*ast.FuncLit); ok {
							checkParBody(info, "Type2Hooks."+sel.Sel.Name, lit, banAll, report)
						}
					}
				}
				return true
			})
		}
	}
}

func isType2Hooks(info *types.Info, lit *ast.CompositeLit) bool {
	tv, ok := info.Types[lit]
	return ok && isType2HooksType(tv.Type)
}

func isType2HooksType(t types.Type) bool {
	named, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Type2Hooks" && isPkgNamed(pkgPathOf(obj), "core")
}

// checkParBody flags concurrent-write hazards in a parallel closure body.
// With banAll set, every captured write is flagged (the IsSpecial
// contract); otherwise writes are allowed through captured slices at
// indices that mention at least one variable local to the closure.
func checkParBody(info *types.Info, what string, lit *ast.FuncLit, banAll bool, report ReportFunc) {
	eachWrite(lit.Body, func(target ast.Expr, define bool) {
		if define {
			return
		}
		root := rootIdent(target)
		if root == nil {
			return
		}
		v := capturedVar(info, lit, root)
		if v == nil {
			return
		}
		if banAll {
			report(target.Pos(), "%s writes captured %q, but IsSpecial is called concurrently and must not mutate shared state", what, v.Name())
			return
		}
		// Scan the access path: a write is range-disjoint if some indexing
		// step on the way down mentions a closure-local variable.
		hasIndex, indexLocal, mapWrite := false, false, false
		for e := ast.Unparen(target); e != nil; {
			switch t := e.(type) {
			case *ast.IndexExpr:
				hasIndex = true
				if tv, ok := info.Types[t.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						mapWrite = true
					}
				}
				if mentionsLocal(info, lit, t.Index) {
					indexLocal = true
				}
				e = t.X
			case *ast.SelectorExpr:
				e = t.X
			case *ast.StarExpr:
				e = t.X
			case *ast.ParenExpr:
				e = t.X
			default:
				e = nil
			}
		}
		switch {
		case mapWrite:
			report(target.Pos(), "%s writes captured map %q concurrently; maps are not safe for parallel writes", what, v.Name())
		case hasIndex && !indexLocal:
			report(target.Pos(), "%s writes captured %q at an index that does not depend on the block range; concurrent blocks write the same element", what, v.Name())
		case !hasIndex:
			report(target.Pos(), "%s writes captured %q from concurrent blocks; use a per-block slot or an atomic", what, v.Name())
		}
	})
}

// mentionsLocal reports whether expr references any variable declared
// inside lit (a parameter or body local — the range-derived seeds).
func mentionsLocal(info *types.Info, lit *ast.FuncLit, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		if v, ok := objOf(info, id).(*types.Var); ok && !v.IsField() && declaredWithin(v, lit) {
			found = true
		}
		return !found
	})
	return found
}
