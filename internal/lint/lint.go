// Package lint is the repository's static-analysis framework: a
// multichecker-style driver in the architectural mold of
// golang.org/x/tools/go/analysis (Analyzer values, a per-package Pass,
// cross-package facts attached to objects), re-implemented on the standard
// library alone because this repo vendors nothing. Analyzers that only
// need syntax walk the AST; the dataflow analyzers (map-order,
// lock-discipline) run over the control-flow graphs built by cfg.go and
// propagate taint through the module's own helpers via the fact store, so
// a determinism leak does not stop being a leak by hiding behind a call
// boundary.
//
// The command front end is cmd/jcrlint; tests drive the same entry points
// in-process.
package lint

import (
	"fmt"
	"go/token"
	"go/types"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one independently toggleable pass. Run inspects one package
// through the Pass and reports findings; it may also export facts about
// the package's objects for analyzers running later on dependent packages.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one (analyzer, package) execution: the package under
// analysis, the shared fact store, and the diagnostic sink. The driver
// applies suppression directives to reported diagnostics afterwards;
// exported facts are never suppressed, so an allowed finding still taints
// its callers.
type Pass struct {
	Pkg      *Package
	Analyzer *Analyzer
	store    *FactStore
	diags    []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ExportFact attaches a fact about obj, visible to this analyzer when it
// later runs on packages that import obj's package.
func (p *Pass) ExportFact(obj types.Object, fact any) {
	p.store.put(p.Analyzer.Name, obj, fact)
}

// ImportFact returns the fact this analyzer attached to obj, if any. The
// object may come from source type-checking or from export data; the two
// resolve to the same fact.
func (p *Pass) ImportFact(obj types.Object) (any, bool) {
	return p.store.get(p.Analyzer.Name, obj)
}

// FactStore holds cross-package facts for one driver run. Facts are keyed
// by (analyzer, canonical object name) rather than object identity: a
// function type-checked from source in its home package and the same
// function materialized from export data in an importing package are
// distinct go/types objects, but share their canonical name.
type FactStore struct {
	facts map[factKey]any
}

type factKey struct {
	analyzer string
	object   string
}

// NewFactStore returns an empty store for one driver run.
func NewFactStore() *FactStore {
	return &FactStore{facts: map[factKey]any{}}
}

func (s *FactStore) put(analyzer string, obj types.Object, fact any) {
	if key, ok := objectKey(obj); ok {
		s.facts[factKey{analyzer, key}] = fact
	}
}

func (s *FactStore) get(analyzer string, obj types.Object) (any, bool) {
	key, ok := objectKey(obj)
	if !ok {
		return nil, false
	}
	fact, ok := s.facts[factKey{analyzer, key}]
	return fact, ok
}

// objectKey canonicalizes an object across source/export-data instances.
// Only package-level objects and methods have stable names; locals do not
// cross package boundaries and are rejected.
func objectKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if f, ok := obj.(*types.Func); ok {
		return f.FullName(), true // includes the receiver for methods
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	return obj.Pkg().Path() + "." + obj.Name(), true
}

// Registry is the full analyzer set, in reporting order: seven AST
// checks, strategy-ctx, and the four SSA-style dataflow analyzers (facts +
// CFG) that encode the repo's determinism and concurrency invariants.
func Registry() []*Analyzer {
	return []*Analyzer{
		FloatEqAnalyzer,
		GlobalRandAnalyzer,
		LibPanicAnalyzer,
		ErrDropAnalyzer,
		TolLiteralAnalyzer,
		BgContextAnalyzer,
		GoStmtAnalyzer,
		StrategyCtxAnalyzer,
		MapOrderAnalyzer,
		WallClockAnalyzer,
		LockDisciplineAnalyzer,
		HotAllocAnalyzer,
	}
}
