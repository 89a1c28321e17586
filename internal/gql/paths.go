package gql

import (
	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/keysort"
)

// MatchPaths evaluates a pattern and returns the bound paths only — the
// "p = π" path-variable facility of Section 5.2 ("Turning to Complement for
// Help"). Paths are deduplicated and ordered by length then key.
func MatchPaths(g *graph.Graph, p Pattern, opts Options) ([]gpath.Path, error) {
	ms, err := EvalPattern(g, p, opts)
	if err != nil {
		return nil, err
	}
	seen := map[string]struct{}{}
	var out []gpath.Path
	for _, m := range ms {
		k := m.Path.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, m.Path)
	}
	return out, nil
}

// Except computes the path-set difference a − b (the EXCEPT workaround the
// paper discusses: match all paths, subtract those matching the complement
// pattern).
func Except(a, b []gpath.Path) []gpath.Path {
	drop := make(map[string]struct{}, len(b))
	for _, p := range b {
		drop[p.Key()] = struct{}{}
	}
	var out []gpath.Path
	for _, p := range a {
		if _, hit := drop[p.Key()]; !hit {
			out = append(out, p)
		}
	}
	return out
}

// FilterPaths keeps the paths satisfying pred.
func FilterPaths(paths []gpath.Path, pred func(gpath.Path) bool) []gpath.Path {
	var out []gpath.Path
	for _, p := range paths {
		if pred(p) {
			out = append(out, p)
		}
	}
	return out
}

// ShortestOf keeps the minimal-length paths of the set, grouped per
// (src, tgt) endpoint pair (GQL's shortest).
func ShortestOf(g *graph.Graph, paths []gpath.Path) []gpath.Path {
	type pair struct{ u, v int }
	best := map[pair]int{}
	for _, p := range paths {
		u, ok1 := p.Src(g)
		v, ok2 := p.Tgt(g)
		if !ok1 || !ok2 {
			continue
		}
		k := pair{u, v}
		if b, ok := best[k]; !ok || p.Len() < b {
			best[k] = p.Len()
		}
	}
	var out []gpath.Path
	for _, p := range paths {
		u, _ := p.Src(g)
		v, _ := p.Tgt(g)
		if p.Len() == best[pair{u, v}] {
			out = append(out, p)
		}
	}
	keysort.Sort(out, func(i int) (int, string) { return out[i].Len(), out[i].Key() })
	return out
}

// ShortestThenFilter applies shortest first and the condition afterwards —
// one of the two semantics of the Section 5.2 quadratic-equation example.
func ShortestThenFilter(g *graph.Graph, paths []gpath.Path, pred func(gpath.Path) bool) []gpath.Path {
	return FilterPaths(ShortestOf(g, paths), pred)
}

// FilterThenShortest applies the condition first and shortest afterwards —
// the other semantics, "uncomfortably close to solving Diophantine
// equations" (Section 5.2).
func FilterThenShortest(g *graph.Graph, paths []gpath.Path, pred func(gpath.Path) bool) []gpath.Path {
	return ShortestOf(g, FilterPaths(paths, pred))
}

// NodesOf is Cypher's N(p): the node elements of the path, in order.
func NodesOf(p gpath.Path) []graph.Object {
	var out []graph.Object
	for _, n := range p.Nodes() {
		out = append(out, graph.MakeNodeObject(n))
	}
	return out
}

// EdgesOf is Cypher's E(p): the edge elements of the path, in order.
func EdgesOf(p gpath.Path) []graph.Object {
	var out []graph.Object
	for _, e := range p.Edges() {
		out = append(out, graph.MakeEdgeObject(e))
	}
	return out
}

// Reduce is the Cypher reduce operation of Section 5.2: Reduce(ε, ι, f, L)
// returns ε for the empty list, ι(x) for a singleton, and
// f(head, Reduce(ε, ι, f, tail)) otherwise.
func Reduce(
	eps graph.Value,
	iota func(graph.Object) graph.Value,
	f func(graph.Object, graph.Value) graph.Value,
	list []graph.Object,
) graph.Value {
	switch len(list) {
	case 0:
		return eps
	case 1:
		return iota(list[0])
	default:
		return f(list[0], Reduce(eps, iota, f, list[1:]))
	}
}

// SumProp returns reduce with ι(e) = e.prop and f = +, i.e. the Σp
// aggregate of Section 5.2 (undefined properties contribute 0).
func SumProp(g *graph.Graph, prop string, list []graph.Object) graph.Value {
	iota := func(o graph.Object) graph.Value {
		v, ok := g.Prop(o, prop)
		if !ok {
			return graph.Int(0)
		}
		return v
	}
	plus := func(o graph.Object, acc graph.Value) graph.Value {
		a, _ := iota(o).Numeric()
		b, _ := acc.Numeric()
		if iota(o).Kind() == graph.KindInt && acc.Kind() == graph.KindInt {
			x, _ := iota(o).AsInt()
			y, _ := acc.AsInt()
			return graph.Int(x + y)
		}
		return graph.Float(a + b)
	}
	return Reduce(graph.Int(0), iota, plus, list)
}

// IncreasingProp implements the Section 5.2 increasing-values reduce:
// ι(e) = e.prop and f(e, v) = e.prop if 0 ≤ e.prop < v, else −1. Reduce
// folds from the right, so f compares each element to the head of its
// suffix; the overall result is non-negative iff the property values along
// the list are non-negative and strictly increasing left-to-right.
func IncreasingProp(g *graph.Graph, prop string, list []graph.Object) bool {
	iota := func(o graph.Object) graph.Value {
		v, ok := g.Prop(o, prop)
		if !ok {
			return graph.Int(-1)
		}
		return v
	}
	f := func(o graph.Object, acc graph.Value) graph.Value {
		ev := iota(o)
		e, eNum := ev.Numeric()
		a, aNum := acc.Numeric()
		if !eNum || !aNum || a < 0 || e < 0 || e >= a {
			return graph.Int(-1)
		}
		return ev
	}
	out := Reduce(graph.Int(0), iota, f, list)
	n, ok := out.Numeric()
	return ok && n >= 0
}
