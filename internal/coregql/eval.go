package coregql

import (
	"errors"
	"fmt"

	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/keysort"
	"graphquery/internal/pg"
	"graphquery/internal/relalg"
)

// ErrUnbounded reports an unbounded repetition evaluated without a MaxLen.
var ErrUnbounded = errors.New("coregql: unbounded repetition requires Options.MaxLen")

// Options bound pattern evaluation.
type Options struct {
	// MaxLen bounds the length (edge count) of produced paths. Required
	// when the pattern contains an unbounded repetition.
	MaxLen int

	// tick, when set, meters every candidate the evaluator considers
	// (EvalPatternMeter wires it); the zero Options meters nothing.
	tick *pg.Ticker
}

// step charges one unit of evaluator work against the meter, if any.
func (o Options) step() error {
	if o.tick == nil {
		return nil
	}
	return o.tick.Step()
}

// EvalPattern computes ⟦π⟧_G per Figure 4, as a deduplicated set of
// matches ordered by path length then keys.
func EvalPattern(g *graph.Graph, p Pattern, opts Options) ([]Match, error) {
	if err := Validate(p); err != nil {
		return nil, err
	}
	if hasUnboundedRepeat(p) && opts.MaxLen <= 0 {
		return nil, ErrUnbounded
	}
	ms, err := evalRec(g, p, opts)
	if err != nil {
		return nil, err
	}
	sortMatches(ms)
	return ms, nil
}

// sortMatches orders matches by path length, then by key.
func sortMatches(ms []Match) {
	keysort.Sort(ms, func(i int) (int, string) { return ms[i].Path.Len(), ms[i].key() })
}

func hasUnboundedRepeat(p Pattern) bool {
	switch n := p.(type) {
	case ConcatPat:
		return hasUnboundedRepeat(n.Left) || hasUnboundedRepeat(n.Right)
	case UnionPat:
		return hasUnboundedRepeat(n.Left) || hasUnboundedRepeat(n.Right)
	case RepeatPat:
		return n.Max < 0 || hasUnboundedRepeat(n.Sub)
	case CondPat:
		return hasUnboundedRepeat(n.Sub)
	default:
		return false
	}
}

func dedup(ms []Match) []Match {
	seen := map[string]struct{}{}
	out := ms[:0]
	for _, m := range ms {
		k := m.key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, m)
	}
	return out
}

func evalRec(g *graph.Graph, p Pattern, opts Options) ([]Match, error) {
	switch n := p.(type) {
	case NodePat:
		out := make([]Match, 0, g.NumNodes())
		for i := 0; i < g.NumNodes(); i++ {
			if err := opts.step(); err != nil {
				return nil, err
			}
			if !g.NodeAlive(i) {
				continue
			}
			b := map[string]graph.Object{}
			if n.Var != "" {
				b[n.Var] = graph.MakeNodeObject(i)
			}
			out = append(out, Match{Path: gpath.OfNode(i), Binding: b})
		}
		return out, nil
	case EdgePat:
		out := make([]Match, 0, g.NumEdges())
		for e := 0; e < g.NumEdges(); e++ {
			if err := opts.step(); err != nil {
				return nil, err
			}
			if !g.EdgeAlive(e) {
				continue
			}
			b := map[string]graph.Object{}
			if n.Var != "" {
				b[n.Var] = graph.MakeEdgeObject(e)
			}
			out = append(out, Match{Path: gpath.Triple(g, e), Binding: b})
		}
		return out, nil
	case ConcatPat:
		left, err := evalRec(g, n.Left, opts)
		if err != nil {
			return nil, err
		}
		right, err := evalRec(g, n.Right, opts)
		if err != nil {
			return nil, err
		}
		joined, err := concatMatches(g, left, right, opts)
		if err != nil {
			return nil, err
		}
		return dedup(joined), nil
	case UnionPat:
		out, err := evalRec(g, n.Left, opts)
		if err != nil {
			return nil, err
		}
		right, err := evalRec(g, n.Right, opts)
		if err != nil {
			return nil, err
		}
		return dedup(append(out, right...)), nil
	case RepeatPat:
		return evalRepeat(g, n, opts)
	case CondPat:
		ms, err := evalRec(g, n.Sub, opts)
		if err != nil {
			return nil, err
		}
		var out []Match
		for _, m := range ms {
			if err := opts.step(); err != nil {
				return nil, err
			}
			if n.Cond.Holds(g, m.Binding) {
				out = append(out, m)
			}
		}
		return out, nil
	default:
		panic(fmt.Sprintf("coregql: unknown pattern %T", p))
	}
}

// concatMatches joins two match sets: paths must compose node-to-node
// (tgt(p₁) = src(p₂)) and bindings must be compatible.
func concatMatches(g *graph.Graph, left, right []Match, opts Options) ([]Match, error) {
	// Bucket right-hand matches by source node.
	bySrc := map[int][]Match{}
	for _, m := range right {
		if s, ok := m.Path.Src(g); ok {
			bySrc[s] = append(bySrc[s], m)
		}
	}
	var out []Match
	for _, lm := range left {
		t, ok := lm.Path.Tgt(g)
		if !ok {
			continue
		}
		for _, rm := range bySrc[t] {
			if err := opts.step(); err != nil {
				return nil, err
			}
			if opts.MaxLen > 0 && lm.Path.Len()+rm.Path.Len() > opts.MaxLen {
				continue
			}
			b, compatible := joinBindings(lm.Binding, rm.Binding)
			if !compatible {
				continue
			}
			joined, ok := gpath.Concat(g, lm.Path, rm.Path)
			if !ok {
				continue
			}
			out = append(out, Match{Path: joined, Binding: b})
		}
	}
	return out, nil
}

// evalRepeat implements ⟦π^{n..m}⟧ of Figure 4: iterated node-to-node
// composition with the bindings erased (µ∅), which is exactly the
// free-variable erasure FV(π^{n..m}) = ∅.
func evalRepeat(g *graph.Graph, n RepeatPat, opts Options) ([]Match, error) {
	base, err := evalRec(g, n.Sub, opts)
	if err != nil {
		return nil, err
	}
	// Erase bindings of the base before iterating (Figure 4 uses only the
	// paths of the subpattern).
	erased := make([]Match, len(base))
	for i, m := range base {
		erased[i] = Match{Path: m.Path, Binding: map[string]graph.Object{}}
	}
	erased = dedup(erased)

	// ⟦π⟧⁰: single-node paths.
	level := make([]Match, 0, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		if err := opts.step(); err != nil {
			return nil, err
		}
		if !g.NodeAlive(i) {
			continue
		}
		level = append(level, Match{Path: gpath.OfNode(i), Binding: map[string]graph.Object{}})
	}
	var out []Match
	if n.Min == 0 {
		out = append(out, level...)
	}
	// seen tracks every path produced at any level; once a level introduces
	// nothing new, no later level can either (extensions depend only on the
	// path), so unbounded iteration may stop.
	seen := map[string]struct{}{}
	for _, m := range level {
		seen[m.key()] = struct{}{}
	}
	for j := 1; n.Max < 0 || j <= n.Max; j++ {
		joined, err := concatMatches(g, level, erased, opts)
		if err != nil {
			return nil, err
		}
		level = dedup(joined)
		if j >= n.Min {
			out = append(out, level...)
		}
		anyFresh := false
		for _, m := range level {
			k := m.key()
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				anyFresh = true
			}
		}
		if n.Max < 0 && !anyFresh {
			break // fixpoint under the MaxLen bound
		}
		if len(level) == 0 {
			break
		}
	}
	return dedup(out), nil
}

// Output computes the pattern-with-output relation ⟦π_Ω⟧_G of Section
// 4.1.2. Ω items are either a bare variable "x" (the bound element) or
// "x.k" (a property of the bound element); matches where some item is
// undefined are dropped (no nulls).
func Output(g *graph.Graph, p Pattern, omega []string, opts Options) (*relalg.Relation, error) {
	ms, err := EvalPattern(g, p, opts)
	if err != nil {
		return nil, err
	}
	rel, err := relalg.NewRelation(omega...)
	if err != nil {
		return nil, err
	}
	for _, m := range ms {
		t := make([]relalg.Cell, len(omega))
		ok := true
		for i, item := range omega {
			varName, prop := splitOmega(item)
			o, bound := m.Binding[varName]
			if !bound {
				ok = false
				break
			}
			if prop == "" {
				if o.IsEdge() {
					t[i] = relalg.EdgeCell(o.Index())
				} else {
					t[i] = relalg.NodeCell(o.Index())
				}
				continue
			}
			v, defined := g.Prop(o, prop)
			if !defined {
				ok = false
				break
			}
			t[i] = relalg.ValueCell(v)
		}
		if !ok {
			continue // µ not compatible with Ω
		}
		if err := rel.Add(t...); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

func splitOmega(item string) (varName, prop string) {
	for i := 0; i < len(item); i++ {
		if item[i] == '.' {
			return item[:i], item[i+1:]
		}
	}
	return item, ""
}
