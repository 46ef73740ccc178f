package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// noallocDirective marks a function whose body must contain no allocating
// construct. It turns the allocation-pin benchmarks of the hot paths
// (table slot writes, steal-loop claims, round-engine leaves) into a
// compile-time contract: the pins prove a path allocated nothing on the
// schedules measured, the directive keeps allocating constructs from
// being written into it at all.
const noallocDirective = "//ridt:noalloc"

// Noalloc checks functions annotated //ridt:noalloc for allocating
// constructs: make/new/append, slice/map/addressed composite literals,
// capturing closures, implicit interface boxing (call arguments,
// assignments, returns, conversions), string concatenation and
// string<->[]byte/[]rune conversions, map writes, and goroutine starts.
//
// The check is shallow by design: a call into another function is not
// traced (annotate the callee if it is part of the contract), escape
// analysis is not modeled (a flagged construct the compiler provably
// keeps on the stack can be suppressed with a justification), and
// allocations inside the runtime (map growth during reads, interface
// method dispatch) are out of scope.
var Noalloc = &Analyzer{
	Name: "noalloc",
	Doc:  "functions annotated //ridt:noalloc must contain no allocating constructs",
	Run:  runNoalloc,
}

func hasNoallocDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == noallocDirective || strings.HasPrefix(c.Text, noallocDirective+" ") {
			return true
		}
	}
	return false
}

func runNoalloc(prog *Program, report ReportFunc) {
	seenFile := map[string]bool{}
	for _, pkg := range prog.Module {
		info := pkg.Info
		for _, file := range pkg.Files {
			fn := prog.Fset.Position(file.Pos()).Filename
			if seenFile[fn] {
				continue
			}
			seenFile[fn] = true
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hasNoallocDirective(fd.Doc) {
					continue
				}
				sig, _ := info.Defs[fd.Name].(*types.Func)
				if sig == nil {
					continue
				}
				checkNoalloc(info, fd, sig.Type().(*types.Signature), report)
			}
		}
	}
}

// checkNoalloc walks one annotated function body.
func checkNoalloc(info *types.Info, fd *ast.FuncDecl, sig *types.Signature, report ReportFunc) {
	name := fd.Name.Name
	// results tracks the result tuple of the function owning each visited
	// return statement (nested literals have their own).
	var walk func(n ast.Node, results *types.Tuple)
	walk = func(n ast.Node, results *types.Tuple) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				if capturesOutside(info, x) {
					report(x.Pos(), "%s is //ridt:noalloc but creates a capturing closure (heap-allocated if it escapes)", name)
				}
				var res *types.Tuple
				if s, ok := typeOf(info, x).(*types.Signature); ok {
					res = s.Results()
				}
				walk(x.Body, res)
				return false
			case *ast.CallExpr:
				checkCallNoalloc(info, name, x, report)
			case *ast.CompositeLit:
				switch deref(typeOf(info, x)).Underlying().(type) {
				case *types.Slice:
					report(x.Pos(), "%s is //ridt:noalloc but builds a slice literal", name)
				case *types.Map:
					report(x.Pos(), "%s is //ridt:noalloc but builds a map literal", name)
				}
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					if _, isLit := ast.Unparen(x.X).(*ast.CompositeLit); isLit {
						report(x.Pos(), "%s is //ridt:noalloc but takes the address of a composite literal (heap-allocated if it escapes)", name)
					}
				}
			case *ast.BinaryExpr:
				if x.Op == token.ADD && isStringType(typeOf(info, x)) {
					report(x.Pos(), "%s is //ridt:noalloc but concatenates strings", name)
				}
			case *ast.GoStmt:
				report(x.Pos(), "%s is //ridt:noalloc but starts a goroutine", name)
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
						if _, isMap := typeOf(info, idx.X).Underlying().(*types.Map); isMap {
							report(lhs.Pos(), "%s is //ridt:noalloc but writes a map entry (may allocate on growth)", name)
						}
					}
					if x.Tok == token.ASSIGN && i < len(x.Rhs) {
						checkBoxing(info, name, typeOf(info, lhs), x.Rhs[i], report)
					}
				}
			case *ast.ReturnStmt:
				if results != nil && len(x.Results) == results.Len() {
					for i, res := range x.Results {
						checkBoxing(info, name, results.At(i).Type(), res, report)
					}
				}
			case *ast.ValueSpec:
				if x.Type != nil {
					dst := typeOf(info, x.Type)
					for _, val := range x.Values {
						checkBoxing(info, name, dst, val, report)
					}
				}
			}
			return true
		})
	}
	walk(fd.Body, sig.Results())
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// capturesOutside reports whether lit references a variable declared
// outside itself; a closure with no free variables compiles to a static
// function value and does not allocate.
func capturesOutside(info *types.Info, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := info.Uses[id].(*types.Var); ok && !v.IsField() &&
			!declaredWithin(v, lit) && !isPackageLevel(v) {
			captured = true
		}
		return true
	})
	return captured
}

func isPackageLevel(v *types.Var) bool {
	return v.Parent() != nil && v.Parent().Parent() == types.Universe
}

// checkCallNoalloc flags allocation at a call site: the allocating
// builtins, allocation-implying conversions, and implicit boxing of
// concrete arguments into interface parameters.
func checkCallNoalloc(info *types.Info, name string, call *ast.CallExpr, report ReportFunc) {
	fun := ast.Unparen(call.Fun)
	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "%s is //ridt:noalloc but calls make", name)
			case "new":
				report(call.Pos(), "%s is //ridt:noalloc but calls new", name)
			case "append":
				report(call.Pos(), "%s is //ridt:noalloc but calls append (grows the backing array when capacity runs out)", name)
			}
			return
		}
	}
	// Conversions.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			return
		}
		dst, src := tv.Type, typeOf(info, call.Args[0])
		switch {
		case isInterface(dst) && !isInterface(src) && !isUntypedNil(info, call.Args[0]):
			report(call.Pos(), "%s is //ridt:noalloc but converts %s to interface %s (boxes the value)", name, src, dst)
		case isStringType(dst) && isByteOrRuneSlice(src):
			report(call.Pos(), "%s is //ridt:noalloc but converts a byte/rune slice to string (copies)", name)
		case isByteOrRuneSlice(dst) && isStringType(src):
			report(call.Pos(), "%s is //ridt:noalloc but converts a string to a byte/rune slice (copies)", name)
		}
		return
	}
	// Implicit boxing of arguments into interface parameters.
	sig, ok := typeOf(info, call.Fun).(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil {
			checkBoxing(info, name, pt, arg, report)
		}
	}
}

// checkBoxing reports an implicit concrete-to-interface conversion of
// expr into target type dst.
func checkBoxing(info *types.Info, name string, dst types.Type, expr ast.Expr, report ReportFunc) {
	if dst == nil || !isInterface(dst) {
		return
	}
	src := typeOf(info, expr)
	if isInterface(src) || isUntypedNil(info, expr) || src == types.Typ[types.Invalid] {
		return
	}
	if _, isTP := src.(*types.TypeParam); isTP {
		return // instantiation-dependent; the instantiated site decides
	}
	report(expr.Pos(), "%s is //ridt:noalloc but implicitly boxes %s into %s", name, src, dst)
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	b, isBasic := tv.Type.(*types.Basic)
	return tv.IsNil() || (isBasic && b.Kind() == types.UntypedNil)
}
