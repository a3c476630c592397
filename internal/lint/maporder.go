package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// mapOrderFact marks a function whose returned slice is ordered by map
// iteration. It propagates through the module: a helper that collects map
// keys without sorting taints every caller that ranges over its result,
// across package boundaries, whether or not the helper's own finding was
// suppressed with a directive.
type mapOrderFact struct {
	Via string // human-readable taint source, e.g. "range over map m"
}

// MapOrderAnalyzer flags code where Go's randomized map iteration order
// can reach an observable output — the exact bug class behind the PR 3
// routing/decompose nondeterminism. Inside a loop whose iteration order is
// map order (a direct `range` over a map, a range over maps.Keys/Values,
// or a range over a slice returned by a function carrying mapOrderFact),
// it reports:
//
//   - appends to a slice, unless that slice is later passed to a
//     sort/slices sorting function in the same function body (the
//     collect-then-sort idiom is the sanctioned fix);
//   - floating-point compound accumulation (x += f(k)): float addition
//     does not commute in the last ulp, so the sum depends on iteration
//     order (integer accumulation is exact and not flagged);
//   - emission — fmt printing, Write/WriteString-style calls, channel
//     sends — whose interleaving is the iteration order;
//   - Add* method calls on a value from outside the loop with
//     key/value-derived arguments: like an append, they build the
//     receiver in iteration order (g.AddArc numbers the arcs, and the
//     arc order decides a solver's ties);
//   - returns of key/value-derived data from inside the loop body, which
//     select a nondeterministic witness.
//
// A function that returns an unsorted map-ordered slice additionally
// exports mapOrderFact, so the taint follows the value into other
// packages instead of stopping at the call boundary.
var MapOrderAnalyzer = &Analyzer{
	Name: "map-order",
	Doc:  "map iteration order must not reach returned values, appended slices, or emitted output; sort keys first",
	Run:  runMapOrder,
}

func runMapOrder(p *Pass) {
	// Intra-package facts settle by fixpoint so helper chains inside one
	// package (A returns B's unsorted result) taint in any declaration
	// order; cross-package facts are already final because the driver
	// analyzes packages in dependency order.
	local := map[*types.Func]string{}
	for {
		changed := false
		for _, fd := range funcDecls(p.Pkg) {
			fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if _, done := local[fn]; done {
				continue
			}
			a := newMapOrderAnalysis(p, fd, local)
			if via, dep := a.resultFact(); dep {
				local[fn] = via
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for fn, via := range local {
		p.ExportFact(fn, mapOrderFact{Via: via})
	}
	reported := map[token.Pos]bool{}
	for _, fd := range funcDecls(p.Pkg) {
		newMapOrderAnalysis(p, fd, local).report(reported)
	}
}

// appendSink is one `append` inside an unordered loop.
type appendSink struct {
	call   *ast.CallExpr
	target types.Object // slice being grown; nil if not a simple variable
}

// unorderedLoop is one loop whose iteration order is map order.
type unorderedLoop struct {
	rng     *ast.RangeStmt
	source  string // what makes the order unordered
	tainted map[types.Object]bool
}

type mapOrderAnalysis struct {
	p         *Pass
	fd        *ast.FuncDecl
	local     map[*types.Func]string
	sorted    map[types.Object]bool   // slices passed to a sort call
	returned  map[types.Object]bool   // objects appearing in return results
	unordered map[types.Object]string // locals holding map-ordered slices
	loops     []*unorderedLoop
	appends   map[*unorderedLoop][]appendSink
}

func newMapOrderAnalysis(p *Pass, fd *ast.FuncDecl, local map[*types.Func]string) *mapOrderAnalysis {
	a := &mapOrderAnalysis{
		p:         p,
		fd:        fd,
		local:     local,
		sorted:    map[types.Object]bool{},
		returned:  map[types.Object]bool{},
		unordered: map[types.Object]string{},
		appends:   map[*unorderedLoop][]appendSink{},
	}
	a.collectSortedAndReturned()
	a.collectUnorderedLocals()
	a.collectLoops()
	return a
}

// collectSortedAndReturned records which objects are passed into sorting
// calls (the sanitizer) and which appear in return statements.
func (a *mapOrderAnalysis) collectSortedAndReturned() {
	ast.Inspect(a.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isSortCall(a.p.Pkg, n) {
				for _, arg := range n.Args {
					ast.Inspect(arg, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							if obj := a.p.Pkg.Info.Uses[id]; obj != nil {
								a.sorted[obj] = true
							}
						}
						return true
					})
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if obj := exprObject(a.p.Pkg, res); obj != nil {
					a.returned[obj] = true
				}
			}
		}
		return true
	})
}

// isSortCall reports whether the call is into the sort or slices package —
// the repo's sanctioned ways of fixing an iteration order in place.
func isSortCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	p := selectorPackage(pkg, sel)
	return p == "sort" || p == "slices"
}

// collectUnorderedLocals marks local variables assigned from map-ordered
// producers (functions with mapOrderFact, maps.Keys/Values), minus those
// that are later sorted.
func (a *mapOrderAnalysis) collectUnorderedLocals() {
	for {
		changed := false
		ast.Inspect(a.fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				via := a.unorderedExpr(rhs)
				if via == "" {
					continue
				}
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := identObject(a.p.Pkg, id)
				if obj == nil || a.sorted[obj] || a.unordered[obj] != "" {
					continue
				}
				a.unordered[obj] = via
				changed = true
			}
			return true
		})
		if !changed {
			return
		}
	}
}

// unorderedExpr describes why e evaluates to a map-ordered sequence, or
// returns "" when it does not.
func (a *mapOrderAnalysis) unorderedExpr(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr:
		if obj := exprObject(a.p.Pkg, e); obj != nil {
			return a.unordered[obj]
		}
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && selectorPackage(a.p.Pkg, sel) == "maps" {
			if sel.Sel.Name == "Keys" || sel.Sel.Name == "Values" {
				return "maps." + sel.Sel.Name
			}
		}
		if fn := calleeFunc(a.p.Pkg, e); fn != nil {
			if via, ok := a.local[fn]; ok {
				return callName(e) + " (" + via + ")"
			}
			if fact, ok := a.p.ImportFact(fn); ok {
				return callName(e) + " (" + fact.(mapOrderFact).Via + ")"
			}
		}
	}
	return ""
}

// collectLoops finds every loop whose iteration order is map order and
// computes the per-loop taint set and append sinks.
func (a *mapOrderAnalysis) collectLoops() {
	ast.Inspect(a.fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		source := a.rangeSource(rng)
		if source == "" {
			return true
		}
		loop := &unorderedLoop{rng: rng, source: source, tainted: map[types.Object]bool{}}
		for _, v := range []ast.Expr{rng.Key, rng.Value} {
			if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
				if obj := identObject(a.p.Pkg, id); obj != nil {
					loop.tainted[obj] = true
				}
			}
		}
		a.propagateTaint(loop)
		a.collectAppends(loop)
		a.loops = append(a.loops, loop)
		return true
	})
}

// rangeSource describes why the loop's iteration order is map order.
func (a *mapOrderAnalysis) rangeSource(rng *ast.RangeStmt) string {
	if tv, ok := a.p.Pkg.Info.Types[rng.X]; ok && tv.Type != nil {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			return "map " + types.ExprString(rng.X)
		}
	}
	return a.unorderedExpr(rng.X)
}

// propagateTaint closes the loop's taint set over assignments inside the
// body: any value derived from the iteration variables is order-tainted.
func (a *mapOrderAnalysis) propagateTaint(loop *unorderedLoop) {
	for {
		changed := false
		mark := func(id *ast.Ident) {
			if id.Name == "_" {
				return
			}
			if obj := identObject(a.p.Pkg, id); obj != nil && !loop.tainted[obj] {
				loop.tainted[obj] = true
				changed = true
			}
		}
		ast.Inspect(loop.rng.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if a.anyTainted(loop, n.Rhs...) {
					for _, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							mark(id)
						}
					}
				}
			case *ast.ValueSpec:
				if a.anyTainted(loop, n.Values...) {
					for _, id := range n.Names {
						mark(id)
					}
				}
			case *ast.RangeStmt:
				if a.anyTainted(loop, n.X) {
					for _, v := range []ast.Expr{n.Key, n.Value} {
						if id, ok := v.(*ast.Ident); ok {
							mark(id)
						}
					}
				}
			}
			return true
		})
		if !changed {
			return
		}
	}
}

// anyTainted reports whether any expression mentions a tainted object.
func (a *mapOrderAnalysis) anyTainted(loop *unorderedLoop, exprs ...ast.Expr) bool {
	found := false
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := a.p.Pkg.Info.Uses[id]; obj != nil && loop.tainted[obj] {
					found = true
				}
			}
			return !found
		})
	}
	return found
}

// collectAppends records the `append` calls inside the loop body.
func (a *mapOrderAnalysis) collectAppends(loop *unorderedLoop) {
	ast.Inspect(loop.rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isBuiltinAppend(a.p.Pkg, call) || len(call.Args) == 0 {
			return true
		}
		sink := appendSink{call: call}
		if obj := exprObject(a.p.Pkg, call.Args[0]); obj != nil {
			sink.target = obj
		}
		a.appends[loop] = append(a.appends[loop], sink)
		return true
	})
}

func isBuiltinAppend(pkg *Package, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, builtin := pkg.Info.Uses[id].(*types.Builtin)
	return builtin
}

// resultFact decides whether the function's results are map-ordered: it
// returns an unsorted slice grown inside an unordered loop, or forwards a
// map-ordered producer's result directly.
func (a *mapOrderAnalysis) resultFact() (string, bool) {
	for _, loop := range a.loops {
		for _, sink := range a.appends[loop] {
			if sink.target != nil && !a.sorted[sink.target] && a.returned[sink.target] {
				return "built by range over " + loop.source + " in " + a.fd.Name.Name, true
			}
		}
	}
	via := ""
	ast.Inspect(a.fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || via != "" {
			return via == ""
		}
		for _, res := range ret.Results {
			if v := a.unorderedExpr(res); v != "" {
				via = v
			}
		}
		return true
	})
	return via, via != ""
}

// report emits the per-loop sink findings. Nested unordered loops share
// body statements, so findings are deduplicated by position.
func (a *mapOrderAnalysis) report(reported map[token.Pos]bool) {
	emit := func(pos token.Pos, format string, args ...any) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		a.p.Reportf(pos, format, args...)
	}
	for _, loop := range a.loops {
		for _, sink := range a.appends[loop] {
			if sink.target != nil && a.sorted[sink.target] {
				continue // collect-then-sort idiom
			}
			emit(sink.call.Pos(), "append in range over %s leaks map iteration order into %s; sort the keys first or sort the slice before use",
				loop.source, types.ExprString(sink.call.Args[0]))
		}
		ast.Inspect(loop.rng.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if isFloatCompound(a.p.Pkg, n) && a.anyTainted(loop, n.Rhs...) {
					emit(n.Pos(), "floating-point accumulation in range over %s depends on map iteration order (float addition does not commute); iterate sorted keys", loop.source)
				}
			case *ast.SendStmt:
				emit(n.Pos(), "channel send inside range over %s publishes values in map iteration order; iterate sorted keys", loop.source)
			case *ast.CallExpr:
				if name, ok := emitCall(a.p.Pkg, n); ok {
					emit(n.Pos(), "%s inside range over %s emits output in map iteration order; iterate sorted keys", name, loop.source)
				} else if sel, ok := growCall(a.p.Pkg, n); ok && a.anyTainted(loop, n.Args...) && !a.anyTainted(loop, sel.X) {
					emit(n.Pos(), "%s inside range over %s builds %s in map iteration order; iterate sorted keys",
						types.ExprString(sel), loop.source, types.ExprString(sel.X))
				}
			case *ast.ReturnStmt:
				if a.anyTainted(loop, n.Results...) {
					emit(n.Pos(), "return inside range over %s selects a nondeterministic iteration; collect and sort instead", loop.source)
				}
			}
			return true
		})
	}
}

// isFloatCompound reports a compound floating-point accumulation
// (x += e, x -= e, ...) or the spelled-out x = x + e form.
func isFloatCompound(pkg *Package, as *ast.AssignStmt) bool {
	if len(as.Lhs) != 1 || !isFloat(pkg, as.Lhs[0]) {
		return false
	}
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return true
	case token.ASSIGN:
		be, ok := ast.Unparen(as.Rhs[0]).(*ast.BinaryExpr)
		if !ok {
			return false
		}
		lhs := types.ExprString(as.Lhs[0])
		return types.ExprString(be.X) == lhs || types.ExprString(be.Y) == lhs
	}
	return false
}

// emitCall recognizes output-producing calls: fmt printing and
// Write/WriteString-style methods.
func emitCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if selectorPackage(pkg, sel) == "fmt" {
		switch name {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return "fmt." + name, true
		}
		return "", false
	}
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		// A method on a writer-ish receiver (strings.Builder,
		// bytes.Buffer, io.Writer, ...).
		if _, isMethod := pkg.Info.Selections[sel]; isMethod {
			return name, true
		}
	}
	return "", false
}

// growCall recognizes a method call that adds to its receiver, named
// Add* like graph.Graph.AddArc, and returns its selector.
func growCall(pkg *Package, call *ast.CallExpr) (*ast.SelectorExpr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "Add") {
		return nil, false
	}
	s, isMethod := pkg.Info.Selections[sel]
	return sel, isMethod && s.Kind() == types.MethodVal
}

// identObject resolves an identifier to its object, whether the ident
// defines it (:=) or uses it (=).
func identObject(pkg *Package, id *ast.Ident) types.Object {
	if obj := pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return pkg.Info.Uses[id]
}
