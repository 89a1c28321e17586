package lrpq

import (
	"context"
	"errors"
	"fmt"

	"graphquery/internal/eval"
	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/keysort"
	"graphquery/internal/pg"
)

// ErrUnbounded mirrors eval.ErrUnbounded for ℓ-RPQ enumeration: ⟦R⟧_G can be
// infinite (Section 6.3 "Path and List Variables"), so mode all requires a
// bound.
var ErrUnbounded = errors.New("lrpq: unbounded enumeration under mode all requires MaxLen or Limit")

// Options bound result enumeration.
type Options struct {
	MaxLen int // bound on path length; 0 = unbounded
	Limit  int // bound on result count; 0 = unlimited (truncates, never errors)
	// Meter, when non-nil, enforces cooperative cancellation and per-query
	// resource budgets (product states visited, result rows) — shared by a
	// serving layer across all stages of one query.
	Meter *eval.Meter
	// Counters (may be nil) receives runtime counters (states expanded
	// by the search loops and kernel sweeps).
	Counters *pg.Counters
}

// EvalBetween computes m(σ_{u,v}(⟦R⟧_G)) — the path bindings between fixed
// endpoints under a path mode, with mode applied after endpoint selection
// exactly as in the restricted path homomorphisms of Section 3.1.5
// (Example 17's grouping by endpoint pairs).
//
// Results are (p, µ) pairs under set semantics, ordered by path length,
// then path key, then binding key. Distinct bindings over the same path are
// distinct results.
//
// With opts.Meter set, evaluation stops early with eval.ErrCanceled or
// eval.ErrBudgetExceeded; without one these errors are impossible.
func EvalBetween(g *graph.Graph, e Expr, src, dst int, mode eval.Mode, opts Options) ([]gpath.PathBinding, error) {
	a := Compile(e)
	m := opts.Meter
	switch mode {
	case eval.All:
		if opts.MaxLen <= 0 && opts.Limit <= 0 {
			return nil, ErrUnbounded
		}
		if opts.MaxLen <= 0 {
			return runBFSLimit(g, a, src, dst, opts.Limit, m, opts.Counters)
		}
		return runSearch(g, a, src, dst, opts, nil, nil)
	case eval.Shortest:
		dist, best, err := productDistances(g, a, src, dst, m, opts.Counters)
		if err != nil {
			return nil, err
		}
		if best == -1 {
			return nil, nil
		}
		return runTight(g, a, src, dst, dist, best, m, opts.Counters)
	case eval.Simple:
		return runSearch(g, a, src, dst, opts, map[int]struct{}{src: {}}, nil)
	case eval.Trail:
		return runSearch(g, a, src, dst, opts, nil, map[int]struct{}{})
	default:
		return nil, fmt.Errorf("lrpq: unknown mode %v", mode)
	}
}

// EvalBetweenCtx is EvalBetween under a context: when opts.Meter is unset,
// one is minted from ctx (with no budget) so cancellation reaches the
// enumeration loops.
func EvalBetweenCtx(ctx context.Context, g *graph.Graph, e Expr, src, dst int, mode eval.Mode, opts Options) ([]gpath.PathBinding, error) {
	if opts.Meter == nil {
		opts.Meter = eval.NewMeter(ctx, eval.Budget{})
	}
	return EvalBetween(g, e, src, dst, mode, opts)
}

// Eval enumerates ⟦R⟧_G from every source node, bounded by opts (the raw
// semantics of Section 3.1.4, which may be infinite without bounds).
// MaxLen is required; Limit alone would need a global shortest-first merge.
func Eval(g *graph.Graph, e Expr, opts Options) ([]gpath.PathBinding, error) {
	if opts.MaxLen <= 0 {
		return nil, ErrUnbounded
	}
	a := Compile(e)
	var out []gpath.PathBinding
	for src := 0; src < g.NumNodes(); src++ {
		if !g.NodeAlive(src) { // tombstoned under a mutation overlay
			continue
		}
		res, err := runSearchCompiled(g, a, src, -1, opts, nil, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, res...)
	}
	return sortPBs(out, opts.Limit), nil
}

// runBFSLimit enumerates (p, µ) shortest-first until limit results, for
// mode-all queries bounded only by Limit. Breadth-first layering guarantees
// termination and nondecreasing path lengths. Budget checks run through the
// runtime's Ticker (as in all search loops of this package).
func runBFSLimit(g *graph.Graph, a *VNFA, src, dst, limit int, m *eval.Meter, cnt *pg.Counters) ([]gpath.PathBinding, error) {
	type cfg struct {
		node, state int
		edges       []int
		vars        []string
	}
	queue := []cfg{{node: src, state: a.Start}}
	seen := map[string]struct{}{}
	var out []gpath.PathBinding
	tick := pg.NewTicker(m, cnt)
	for len(queue) > 0 && len(out) < limit {
		if err := tick.Step(); err != nil {
			return nil, err
		}
		c := queue[0]
		queue = queue[1:]
		if a.Accept[c.state] && (dst == -1 || c.node == dst) {
			pb := gpath.PathBinding{Path: buildPath(g, src, c.edges), Binding: buildBinding(g, c.edges, c.vars)}
			k := pb.Key()
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				out = append(out, pb)
				if err := m.AddRows(1); err != nil {
					return nil, err
				}
				if len(out) == limit {
					break
				}
			}
		}
		for _, ei := range g.Out(c.node) {
			lab := g.Edge(ei).Label
			for _, tr := range a.Trans[c.state] {
				if tr.Guard.Matches(lab) {
					ne := make([]int, len(c.edges)+1)
					copy(ne, c.edges)
					ne[len(c.edges)] = ei
					nv := make([]string, len(c.vars)+1)
					copy(nv, c.vars)
					nv[len(c.vars)] = tr.Var
					queue = append(queue, cfg{node: g.Edge(ei).Tgt, state: tr.To, edges: ne, vars: nv})
				}
			}
		}
	}
	if err := tick.Flush(); err != nil {
		return nil, err
	}
	return out, nil
}

func sortPBs(pbs []gpath.PathBinding, limit int) []gpath.PathBinding {
	keysort.Sort(pbs, func(i int) (int, string) { return pbs[i].Path.Len(), pbs[i].Key() })
	if limit > 0 && len(pbs) > limit {
		pbs = pbs[:limit]
	}
	return pbs
}

// runSearch enumerates (p, µ) by DFS over the annotated product. dst = -1
// accepts any endpoint. usedNodes non-nil enforces simple paths; usedEdges
// non-nil enforces trails.
func runSearch(g *graph.Graph, a *VNFA, src, dst int, opts Options,
	usedNodes, usedEdges map[int]struct{}) ([]gpath.PathBinding, error) {
	return runSearchCompiled(g, a, src, dst, opts, usedNodes, usedEdges)
}

func runSearchCompiled(g *graph.Graph, a *VNFA, src, dst int, opts Options,
	usedNodes, usedEdges map[int]struct{}) ([]gpath.PathBinding, error) {

	m := opts.Meter
	seen := map[string]struct{}{}
	var out []gpath.PathBinding
	var edges []int
	var vars []string // variable per traversed edge ("" for none)
	limitHit := false
	var stopErr error
	tick := pg.NewTicker(m, opts.Counters)

	restricted := usedNodes != nil || usedEdges != nil

	emit := func(node int) {
		p := buildPath(g, src, edges)
		mu := buildBinding(g, edges, vars)
		pb := gpath.PathBinding{Path: p, Binding: mu}
		k := pb.Key()
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out = append(out, pb)
			if err := m.AddRows(1); err != nil {
				stopErr = err
				return
			}
			if opts.Limit > 0 && len(out) >= opts.Limit && restricted {
				limitHit = true
			}
		}
	}

	var dfs func(node, state int)
	dfs = func(node, state int) {
		if limitHit || stopErr != nil {
			return
		}
		if err := tick.Step(); err != nil {
			stopErr = err
			return
		}
		if a.Accept[state] && (dst == -1 || node == dst) {
			emit(node)
			if stopErr != nil {
				return
			}
		}
		if opts.MaxLen > 0 && len(edges) == opts.MaxLen {
			return
		}
		for _, ei := range g.Out(node) {
			lab := g.Edge(ei).Label
			if usedEdges != nil {
				if _, used := usedEdges[ei]; used {
					continue
				}
			}
			tgt := g.Edge(ei).Tgt
			if usedNodes != nil {
				if _, used := usedNodes[tgt]; used {
					continue
				}
			}
			for _, tr := range a.Trans[state] {
				if !tr.Guard.Matches(lab) {
					continue
				}
				if usedEdges != nil {
					usedEdges[ei] = struct{}{}
				}
				if usedNodes != nil {
					usedNodes[tgt] = struct{}{}
				}
				edges = append(edges, ei)
				vars = append(vars, tr.Var)
				dfs(tgt, tr.To)
				edges = edges[:len(edges)-1]
				vars = vars[:len(vars)-1]
				if usedEdges != nil {
					delete(usedEdges, ei)
				}
				if usedNodes != nil {
					delete(usedNodes, tgt)
				}
			}
		}
	}
	dfs(src, a.Start)
	if stopErr == nil {
		stopErr = tick.Flush()
	}
	if stopErr != nil {
		return nil, stopErr
	}
	if restricted {
		return sortPBs(out, 0), nil
	}
	return sortPBs(out, opts.Limit), nil
}

func buildPath(g *graph.Graph, src int, edges []int) gpath.Path {
	p := gpath.OfNode(src)
	for _, ei := range edges {
		next, _ := gpath.Concat(g, p, gpath.Triple(g, ei))
		p = next
	}
	return p
}

func buildBinding(g *graph.Graph, edges []int, vars []string) gpath.Binding {
	var mu gpath.Binding
	for i, ei := range edges {
		if vars[i] == "" {
			continue
		}
		if mu == nil {
			mu = gpath.Binding{}
		}
		mu[vars[i]] = append(mu[vars[i]], graph.MakeEdgeObject(ei))
	}
	return mu
}

// productDistances computes (node, state) product distances ignoring
// variable annotations, on the unified runtime kernel over the erased NFA
// (annotations cannot change reachability, and VNFA state numbering is
// preserved by Erased), plus the minimal accepting distance at dst (-1 if
// unreachable).
func productDistances(g *graph.Graph, a *VNFA, src, dst int, m *eval.Meter, cnt *pg.Counters) (dist []int, best int, err error) {
	kern := pg.NewKernel(g, pg.FromNFA(g, a.Erased()), cnt)
	dist, err = kern.Distances(src, m)
	if err != nil {
		return nil, -1, err
	}
	best = -1
	for q := 0; q < a.NumStates; q++ {
		i := dst*a.NumStates + q
		if a.Accept[q] && dist[i] >= 0 && (best == -1 || dist[i] < best) {
			best = dist[i]
		}
	}
	return dist, best, nil
}

// runTight enumerates all shortest (p, µ) via tight product edges.
func runTight(g *graph.Graph, a *VNFA, src, dst int, dist []int, best int, m *eval.Meter, cnt *pg.Counters) ([]gpath.PathBinding, error) {
	id := func(node, state int) int { return node*a.NumStates + state }
	seen := map[string]struct{}{}
	var out []gpath.PathBinding
	var edges []int
	var vars []string
	var stopErr error
	tick := pg.NewTicker(m, cnt)
	var dfs func(node, state int)
	dfs = func(node, state int) {
		if stopErr != nil {
			return
		}
		if err := tick.Step(); err != nil {
			stopErr = err
			return
		}
		d := len(edges)
		if d == best {
			if node == dst && a.Accept[state] {
				pb := gpath.PathBinding{Path: buildPath(g, src, edges), Binding: buildBinding(g, edges, vars)}
				k := pb.Key()
				if _, dup := seen[k]; !dup {
					seen[k] = struct{}{}
					out = append(out, pb)
					if err := m.AddRows(1); err != nil {
						stopErr = err
					}
				}
			}
			return
		}
		for _, ei := range g.Out(node) {
			lab := g.Edge(ei).Label
			tgt := g.Edge(ei).Tgt
			for _, tr := range a.Trans[state] {
				if tr.Guard.Matches(lab) && dist[id(tgt, tr.To)] == d+1 {
					edges = append(edges, ei)
					vars = append(vars, tr.Var)
					dfs(tgt, tr.To)
					edges = edges[:len(edges)-1]
					vars = vars[:len(vars)-1]
				}
			}
		}
	}
	dfs(src, a.Start)
	if stopErr == nil {
		stopErr = tick.Flush()
	}
	if stopErr != nil {
		return nil, stopErr
	}
	return sortPBs(out, 0), nil
}

// BindingsOnPath runs the ℓ-RPQ over one fixed path and returns the distinct
// bindings of its accepting runs — the per-path blowup measure of Section
// 6.3 (the ℓ-RPQ (aa^z + a^z a)* produces 2ⁿ bindings on a single 2n-edge
// path).
func BindingsOnPath(g *graph.Graph, e Expr, p gpath.Path) []gpath.Binding {
	a := Compile(e)
	edges := p.Edges()
	type cfg struct {
		state int
		vars  []string
	}
	cur := []cfg{{state: a.Start}}
	for _, ei := range edges {
		lab := g.Edge(ei).Label
		var next []cfg
		for _, c := range cur {
			for _, tr := range a.Trans[c.state] {
				if tr.Guard.Matches(lab) {
					nv := make([]string, len(c.vars)+1)
					copy(nv, c.vars)
					nv[len(c.vars)] = tr.Var
					next = append(next, cfg{state: tr.To, vars: nv})
				}
			}
		}
		cur = next
		if len(cur) == 0 {
			return nil
		}
	}
	seen := map[string]struct{}{}
	var out []gpath.Binding
	for _, c := range cur {
		if !a.Accept[c.state] {
			continue
		}
		mu := buildBinding(g, edges, c.vars)
		k := mu.Key()
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out = append(out, mu)
		}
	}
	return out
}
