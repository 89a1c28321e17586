// Package coregql implements CoreGQL (Section 4.1 of the paper): the
// distilled-from-practice abstraction of GQL consisting of (1) a pattern
// calculus, (2) pattern outputs as first-normal-form relations, and (3)
// relational algebra over those relations (package relalg).
//
// Patterns follow the grammar of Section 4.1.1:
//
//	π := (x) | -x-> | π₁ π₂ | π₁ + π₂ | π^{n..m} | π⟨θ⟩
//
// with conditions θ over property comparisons, label tests, and Boolean
// connectives. The semantics is exactly Figure 4: patterns produce pairs of
// a (node-to-node) path and a binding of free variables to graph elements;
// repetition erases free variables (FV(π^{n..m}) = ∅), which is the
// normal-form discipline that keeps outputs flat — and the root cause of
// the Example 1 phenomenon that π^{2..2} ≢ ππ when π contains variables.
package coregql

import (
	"fmt"
	"sort"
	"strings"

	"graphquery/internal/gpath"
	"graphquery/internal/graph"
)

// Pattern is a CoreGQL pattern π.
type Pattern interface {
	fmt.Stringer
	isPattern()
}

// NodePat is (x); the variable is optional ("" for anonymous).
type NodePat struct{ Var string }

// EdgePat is -x->; the variable is optional.
type EdgePat struct{ Var string }

// ConcatPat is π₁ π₂ (node-to-node composition with a join on compatible
// bindings).
type ConcatPat struct{ Left, Right Pattern }

// UnionPat is π₁ + π₂; both sides must have the same free variables
// (CoreGQL's no-nulls discipline).
type UnionPat struct{ Left, Right Pattern }

// RepeatPat is π^{Min..Max}; Max < 0 means ∞.
type RepeatPat struct {
	Sub Pattern
	Min int
	Max int
}

// CondPat is π⟨θ⟩.
type CondPat struct {
	Sub  Pattern
	Cond Condition
}

func (NodePat) isPattern()   {}
func (EdgePat) isPattern()   {}
func (ConcatPat) isPattern() {}
func (UnionPat) isPattern()  {}
func (RepeatPat) isPattern() {}
func (CondPat) isPattern()   {}

func (p NodePat) String() string { return "(" + p.Var + ")" }
func (p EdgePat) String() string {
	if p.Var == "" {
		return "-->"
	}
	return "-" + p.Var + "->"
}
func (p ConcatPat) String() string { return p.Left.String() + " " + p.Right.String() }
func (p UnionPat) String() string  { return "(" + p.Left.String() + " + " + p.Right.String() + ")" }
func (p RepeatPat) String() string {
	switch {
	case p.Min == 0 && p.Max < 0:
		return "(" + p.Sub.String() + ")*"
	case p.Max < 0:
		return fmt.Sprintf("(%s){%d..inf}", p.Sub, p.Min)
	default:
		return fmt.Sprintf("(%s){%d..%d}", p.Sub, p.Min, p.Max)
	}
}
func (p CondPat) String() string { return "(" + p.Sub.String() + ")<" + p.Cond.String() + ">" }

// Node returns the node pattern (x).
func Node(x string) Pattern { return NodePat{Var: x} }

// AnonNode returns ().
func AnonNode() Pattern { return NodePat{} }

// Edge returns -x->.
func Edge(x string) Pattern { return EdgePat{Var: x} }

// AnonEdge returns -->.
func AnonEdge() Pattern { return EdgePat{} }

// Concat chains patterns left to right.
func Concat(ps ...Pattern) Pattern {
	if len(ps) == 0 {
		panic("coregql: Concat needs at least one pattern")
	}
	out := ps[0]
	for _, p := range ps[1:] {
		out = ConcatPat{Left: out, Right: p}
	}
	return out
}

// Union returns π₁ + π₂.
func Union(a, b Pattern) Pattern { return UnionPat{Left: a, Right: b} }

// Repeat returns π^{min..max}; max < 0 means ∞.
func Repeat(p Pattern, min, max int) Pattern { return RepeatPat{Sub: p, Min: min, Max: max} }

// Star returns π^{0..∞}.
func Star(p Pattern) Pattern { return RepeatPat{Sub: p, Min: 0, Max: -1} }

// Filter returns π⟨θ⟩.
func Filter(p Pattern, c Condition) Pattern { return CondPat{Sub: p, Cond: c} }

// FreeVars computes FV(π) per Section 4.1.1: repetition erases variables,
// union requires both sides to agree (checked by Validate).
func FreeVars(p Pattern) []string {
	set := map[string]struct{}{}
	collectFV(p, set)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func collectFV(p Pattern, set map[string]struct{}) {
	switch n := p.(type) {
	case NodePat:
		if n.Var != "" {
			set[n.Var] = struct{}{}
		}
	case EdgePat:
		if n.Var != "" {
			set[n.Var] = struct{}{}
		}
	case ConcatPat:
		collectFV(n.Left, set)
		collectFV(n.Right, set)
	case UnionPat:
		collectFV(n.Left, set) // FV(π₁+π₂) = FV(π₁) (= FV(π₂))
	case RepeatPat:
		// FV(π^{n..m}) = ∅: repetition erases variables.
	case CondPat:
		collectFV(n.Sub, set)
	}
}

// Validate checks the well-formedness constraints: in every union both
// sides have identical free variables, repetition bounds are sane, and
// conditions only mention variables free in their subpattern.
func Validate(p Pattern) error {
	switch n := p.(type) {
	case NodePat, EdgePat:
		return nil
	case ConcatPat:
		if err := Validate(n.Left); err != nil {
			return err
		}
		return Validate(n.Right)
	case UnionPat:
		if err := Validate(n.Left); err != nil {
			return err
		}
		if err := Validate(n.Right); err != nil {
			return err
		}
		l, r := FreeVars(n.Left), FreeVars(n.Right)
		if strings.Join(l, ",") != strings.Join(r, ",") {
			return fmt.Errorf("coregql: union branches have different free variables %v vs %v (nulls are not allowed)", l, r)
		}
		return nil
	case RepeatPat:
		if n.Min < 0 || (n.Max >= 0 && n.Max < n.Min) {
			return fmt.Errorf("coregql: invalid repetition bounds {%d..%d}", n.Min, n.Max)
		}
		return Validate(n.Sub)
	case CondPat:
		if err := Validate(n.Sub); err != nil {
			return err
		}
		fv := map[string]struct{}{}
		for _, v := range FreeVars(n.Sub) {
			fv[v] = struct{}{}
		}
		for _, v := range condVars(n.Cond) {
			if _, ok := fv[v]; !ok {
				return fmt.Errorf("coregql: condition mentions %q, which is not free in the subpattern", v)
			}
		}
		return nil
	default:
		return fmt.Errorf("coregql: unknown pattern %T", p)
	}
}

// Match is one element of ⟦π⟧_G: a node-to-node path and a binding of free
// variables to graph elements.
type Match struct {
	Path    gpath.Path
	Binding map[string]graph.Object
}

func bindingKey(b map[string]graph.Object) string {
	vars := make([]string, 0, len(b))
	for v := range b {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	out := make([]byte, 0, 16*len(vars))
	for _, v := range vars {
		out = append(out, v...)
		out = append(out, '=')
		out = gpath.AppendObjectKey(out, b[v])
		out = append(out, ';')
	}
	return string(out)
}

func (m Match) key() string { return m.Path.Key() + "|" + bindingKey(m.Binding) }

// compatible reports µ₁ ~ µ₂ and returns µ₁ ⋈ µ₂.
func joinBindings(a, b map[string]graph.Object) (map[string]graph.Object, bool) {
	for v, o := range a {
		if o2, shared := b[v]; shared && o != o2 {
			return nil, false
		}
	}
	out := make(map[string]graph.Object, len(a)+len(b))
	for v, o := range a {
		out[v] = o
	}
	for v, o := range b {
		out[v] = o
	}
	return out, true
}
