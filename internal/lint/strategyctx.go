package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// StrategyCtxAnalyzer keeps cancellation live inside the strategy layer:
// a Strategy.Decide implementation receives the caller's ctx and must
// thread it into the module's cancellable solver entry points. Inside any
// method named Decide whose first parameter is a context.Context, a call
// to a module function that takes a leading ctx is flagged when it passes
// nil or a freshly minted root (context.Background/TODO): the solver then
// runs uncancellable even though Decide holds a live ctx. Every solver
// has exactly one package-level entry and it takes ctx first, so there is
// no ctx-less variant to fall back on.
//
// Callers outside Decide may pass nil (the repo's "no cancellation"
// convention); this analyzer is only about implementations that were
// handed a ctx and dropped it.
var StrategyCtxAnalyzer = &Analyzer{
	Name: "strategy-ctx",
	Doc:  "Strategy.Decide implementations must thread their ctx into ctx-capable module calls",
	Run:  runStrategyCtx,
}

func runStrategyCtx(p *Pass) {
	pkg := p.Pkg
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "Decide" || fd.Body == nil {
				continue
			}
			if !decideTakesCtx(pkg, fd) {
				continue
			}
			checkDecideBody(p, fd)
		}
	}
}

// decideTakesCtx reports whether the method's first parameter is a
// context.Context.
func decideTakesCtx(pkg *Package, fd *ast.FuncDecl) bool {
	params := fd.Type.Params
	if params == nil || len(params.List) == 0 {
		return false
	}
	tv, ok := pkg.Info.Types[params.List[0].Type]
	if !ok {
		return false
	}
	return isContextType(tv.Type)
}

// isContextType recognizes the context.Context interface.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkDecideBody walks one Decide implementation and flags module calls
// that drop the ctx.
func checkDecideBody(p *Pass, fd *ast.FuncDecl) {
	pkg := p.Pkg
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pkg, call)
		if fn == nil || fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path()+"/", moduleForPath(pkg.Path)) {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return true
		}
		params := sig.Params()
		if params.Len() == 0 || !isContextType(params.At(0).Type()) || len(call.Args) == 0 {
			return true
		}
		switch arg := ast.Unparen(call.Args[0]).(type) {
		case *ast.Ident:
			if arg.Name == "nil" && pkg.Info.Types[arg].IsNil() {
				p.Reportf(call.Pos(), "Decide passes a nil context to %s; thread the Decide ctx so the solver stays cancellable", callName(call))
			}
		case *ast.CallExpr:
			if sel, ok := arg.Fun.(*ast.SelectorExpr); ok && selectorPackage(pkg, sel) == "context" &&
				(sel.Sel.Name == "Background" || sel.Sel.Name == "TODO") {
				p.Reportf(call.Pos(), "Decide mints a root context for %s; thread the Decide ctx so the solver stays cancellable", callName(call))
			}
		}
		return true
	})
}

// moduleForPath returns the module prefix ("jcr/") that marks a package
// as this repository's own code; the analyzer only polices module calls —
// the standard library and hypothetical third parties are out of scope.
func moduleForPath(pkgPath string) string {
	if i := strings.Index(pkgPath, "/"); i >= 0 {
		return pkgPath[:i+1]
	}
	return pkgPath + "/"
}
