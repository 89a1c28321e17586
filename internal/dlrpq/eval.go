package dlrpq

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"graphquery/internal/automata"
	"graphquery/internal/eval"
	"graphquery/internal/gpath"
	"graphquery/internal/graph"
	"graphquery/internal/keysort"
	"graphquery/internal/pg"
)

// ErrUnbounded is returned when mode-all enumeration has no MaxLen/Limit.
var ErrUnbounded = errors.New("dlrpq: unbounded enumeration under mode all requires MaxLen or Limit")

// Options bound result enumeration. MaxLen bounds len(p) (edge count).
type Options struct {
	MaxLen int
	Limit  int
	// Meter, when non-nil, enforces cooperative cancellation and per-query
	// resource budgets across the configuration search; with a nil meter
	// evaluation never returns eval.ErrCanceled/eval.ErrBudgetExceeded.
	Meter *eval.Meter
	// Counters, when non-nil, receives runtime statistics (configurations
	// expanded) from the search loops.
	Counters *pg.Counters
}

// assignment is a value assignment ν: DataVar → Values (partial).
type assignment map[string]graph.Value

func (v assignment) key() string {
	if len(v) == 0 {
		return ""
	}
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		val := v[k]
		fmt.Fprintf(&b, "%s=%d:%s;", k, val.Kind(), val.String())
	}
	return b.String()
}

func (v assignment) with(x string, val graph.Value) assignment {
	out := make(assignment, len(v)+1)
	for k, w := range v {
		out[k] = w
	}
	out[x] = val
	return out
}

// matchAtom checks whether atom can be applied to object o under ν,
// returning the updated assignment. The object's kind must already agree
// with the atom (callers guarantee this).
func matchAtom(g *graph.Graph, a Atom, o graph.Object, nu assignment) (assignment, bool) {
	if a.Test == nil {
		lab := g.Label(o)
		if a.Wild {
			for _, ex := range a.Except {
				if lab == ex {
					return nil, false
				}
			}
			return nu, true
		}
		if lab != a.Name {
			return nil, false
		}
		return nu, true
	}
	t := a.Test
	val, defined := g.Prop(o, t.Prop)
	if t.Assign {
		if !defined {
			return nil, false // assignment from an undefined property fails
		}
		return nu.with(t.AssignVar, val), true
	}
	if !defined {
		return nil, false
	}
	var rhs graph.Value
	if t.UseConst {
		rhs = t.Const
	} else {
		stored, ok := nu[t.CmpVar]
		if !ok {
			return nil, false // comparing against an unset data variable
		}
		rhs = stored
	}
	if !t.Op.Apply(val, rhs) {
		return nil, false
	}
	return nu, true
}

// config is an evaluation configuration: the current (last) object of the
// path being built — or none at the start — the automaton state, and ν.
type config struct {
	hasObj bool
	obj    graph.Object
	state  int
	nu     assignment
}

func (c config) key() string {
	var b strings.Builder
	if c.hasObj {
		if c.obj.IsEdge() {
			fmt.Fprintf(&b, "E%d", c.obj.Index())
		} else {
			fmt.Fprintf(&b, "N%d", c.obj.Index())
		}
	} else {
		b.WriteByte('-')
	}
	fmt.Fprintf(&b, "#%d#", c.state)
	b.WriteString(c.nu.key())
	return b.String()
}

// move is one application of an atom: the successor configuration, the
// object appended to the path (if any), the binding append (if any), and
// whether a new edge was consumed (cost 1).
type move struct {
	next     config
	appended bool
	appObj   graph.Object
	bindVar  string // non-empty when appObj (or collapsed object) joins a list
	bindObj  graph.Object
	cost     int
}

// edgeGuard maps an edge atom's label constraint onto a runtime guard: a
// named label is the positive singleton, a wildcard is co-finite over its
// exception list, and a test atom constrains no label at all (the data
// test runs in matchAtom).
func edgeGuard(a Atom) automata.Guard {
	if a.Test != nil {
		return automata.GuardAny()
	}
	if a.Wild {
		ex := append([]string(nil), a.Except...)
		sort.Strings(ex)
		return automata.Guard{Negated: true, Labels: ex}
	}
	return automata.GuardLabel(a.Name)
}

// anfaMachine pairs a compiled ANFA with its edge-atom guards resolved
// against one graph through the shared runtime — the dl-RPQ instantiation
// of pg's guard resolution. A positive guard carries the graph's label ID
// so candidate edges come from the per-label index; wildcard and test
// atoms become co-finite guards filtering dense lists. ok is false when a
// named label does not occur in the graph at all: that transition can
// never consume an edge there.
type anfaMachine struct {
	a      *ANFA
	guards [][]resolvedAtom // aligned with a.Trans; node atoms stay zero
}

type resolvedAtom struct {
	rg pg.ResolvedGuard
	ok bool
}

func newANFAMachine(g *graph.Graph, a *ANFA) *anfaMachine {
	m := &anfaMachine{a: a, guards: make([][]resolvedAtom, len(a.Trans))}
	for q, ts := range a.Trans {
		m.guards[q] = make([]resolvedAtom, len(ts))
		for i, tr := range ts {
			if tr.Atom.Edge {
				rg, ok := pg.Resolve(g, edgeGuard(tr.Atom))
				m.guards[q][i] = resolvedAtom{rg: rg, ok: ok}
			}
		}
	}
	return m
}

// successors enumerates the legal atom applications from cfg. anchor is the
// required src(p) for paths still empty (-1 for unanchored evaluation).
func successors(g *graph.Graph, mach *anfaMachine, cfg config, anchor int) []move {
	a := mach.a
	var out []move
	for ti, tr := range a.Trans[cfg.state] {
		atom := tr.Atom
		if !atom.Edge {
			// Node atom: candidate objects per the concatenation rules.
			var candidates []int
			var appended bool
			switch {
			case !cfg.hasObj:
				appended = true
				if anchor >= 0 {
					candidates = []int{anchor}
				} else {
					for n := 0; n < g.NumNodes(); n++ {
						if g.NodeAlive(n) { // skip tombstones under a mutation overlay
							candidates = append(candidates, n)
						}
					}
				}
			case cfg.obj.IsNode():
				appended = false // collapse onto the same node
				candidates = []int{cfg.obj.Index()}
			default: // last object is an edge: the node must be its target
				appended = true
				candidates = []int{g.Edge(cfg.obj.Index()).Tgt}
			}
			for _, n := range candidates {
				o := graph.MakeNodeObject(n)
				nu, ok := matchAtom(g, atom, o, cfg.nu)
				if !ok {
					continue
				}
				m := move{
					next:     config{hasObj: true, obj: o, state: tr.To, nu: nu},
					appended: appended,
					appObj:   o,
				}
				if atom.Test == nil && atom.Var != "" {
					m.bindVar, m.bindObj = atom.Var, o
				}
				out = append(out, m)
			}
		} else {
			// Edge atom: candidate edges come from the transition's resolved
			// guard (matchAtom still applies the atom's full check to every
			// candidate, so this only prunes edges the atom would reject
			// anyway).
			ra := mach.guards[cfg.state][ti]
			var candidates []int
			collect := func(ei int) { candidates = append(candidates, ei) }
			var appended bool
			var cost int
			switch {
			case !cfg.hasObj:
				appended, cost = true, 1
				if ra.ok {
					if anchor >= 0 {
						ra.rg.OutEdges(g, anchor, collect)
					} else {
						ra.rg.Edges(g, collect)
					}
				}
			case cfg.obj.IsEdge():
				appended, cost = false, 0 // collapse onto the same edge
				candidates = []int{cfg.obj.Index()}
			default: // last object is a node: outgoing edges
				appended, cost = true, 1
				if ra.ok {
					ra.rg.OutEdges(g, cfg.obj.Index(), collect)
				}
			}
			for _, e := range candidates {
				o := graph.MakeEdgeObject(e)
				nu, ok := matchAtom(g, atom, o, cfg.nu)
				if !ok {
					continue
				}
				m := move{
					next:     config{hasObj: true, obj: o, state: tr.To, nu: nu},
					appended: appended,
					appObj:   o,
					cost:     cost,
				}
				if atom.Test == nil && atom.Var != "" {
					m.bindVar, m.bindObj = atom.Var, o
				}
				out = append(out, m)
			}
		}
	}
	return out
}

// endpointOK reports whether tgt(p) = dst for the path ending in cfg.obj.
func endpointOK(g *graph.Graph, cfg config, dst int) bool {
	if !cfg.hasObj {
		return false // the empty path has no endpoints
	}
	if cfg.obj.IsNode() {
		return cfg.obj.Index() == dst
	}
	return g.Edge(cfg.obj.Index()).Tgt == dst
}

// EvalBetween computes m(σ_{u,v}(⟦R⟧_G)): the (p, µ) results whose path runs
// from src to dst, under a path mode, with the mode applied after endpoint
// selection (Section 3.1.5 via Section 3.2.2).
//
// Idle derivation loops — zero-cost cycles through a repeated configuration
// that only pump list variables (e.g. ((a^z))* re-collapsing on one node) —
// are cut: each configuration is visited at most once between consecutive
// edge consumptions. This keeps result sets finite without affecting which
// paths are found.
func EvalBetween(g *graph.Graph, e Expr, src, dst int, mode eval.Mode, opts Options) ([]gpath.PathBinding, error) {
	a := Compile(e)
	switch mode {
	case eval.All:
		if opts.MaxLen <= 0 && opts.Limit <= 0 {
			return nil, ErrUnbounded
		}
		if opts.MaxLen <= 0 {
			// Limit-only: iteratively deepen until enough results or the
			// search space is exhausted at the configuration level.
			return deepen(g, a, src, dst, opts.Limit, opts.Meter, opts.Counters)
		}
		return search(g, a, src, dst, opts, 0)
	case eval.Shortest:
		best, reachable, err := shortestDistance(g, a, src, dst, opts.Meter, opts.Counters)
		if err != nil {
			return nil, err
		}
		if !reachable {
			return nil, nil
		}
		return search(g, a, src, dst, Options{MaxLen: best, Limit: opts.Limit, Meter: opts.Meter, Counters: opts.Counters}, flagExact)
	case eval.Simple:
		return search(g, a, src, dst, opts, modeSimple)
	case eval.Trail:
		return search(g, a, src, dst, opts, modeTrail)
	default:
		return nil, fmt.Errorf("dlrpq: unknown mode %v", mode)
	}
}

// EvalBetweenCtx is EvalBetween under a context: when opts.Meter is unset,
// one is minted from ctx (with no budget) so cancellation reaches the
// configuration search.
func EvalBetweenCtx(ctx context.Context, g *graph.Graph, e Expr, src, dst int, mode eval.Mode, opts Options) ([]gpath.PathBinding, error) {
	if opts.Meter == nil {
		opts.Meter = eval.NewMeter(ctx, eval.Budget{})
	}
	return EvalBetween(g, e, src, dst, mode, opts)
}

// Eval enumerates ⟦R⟧_G unanchored (all endpoints), requiring MaxLen.
func Eval(g *graph.Graph, e Expr, opts Options) ([]gpath.PathBinding, error) {
	if opts.MaxLen <= 0 {
		return nil, ErrUnbounded
	}
	a := Compile(e)
	out, _, err := searchAnchor(g, a, -1, -1, opts, 0)
	if err != nil {
		return nil, err
	}
	return sortPBs(out, opts.Limit), nil
}

type searchFlags int

const (
	modeSimple searchFlags = 1 << iota
	modeTrail
	flagExact
)

func search(g *graph.Graph, a *ANFA, src, dst int, opts Options, flags searchFlags) ([]gpath.PathBinding, error) {
	out, _, err := searchAnchor(g, a, src, dst, opts, flags)
	if err != nil {
		return nil, err
	}
	return sortPBs(out, opts.Limit), nil
}

// searchAnchor is the core DFS over configurations. src = -1 means any
// start; dst = -1 means any end. truncated reports whether some branch was
// cut by the MaxLen bound (i.e. deeper results may exist). Budget checks
// run through the runtime's Ticker — one step per configuration expansion
// — and the meter is charged one row per emitted result.
func searchAnchor(g *graph.Graph, a *ANFA, src, dst int, opts Options, flags searchFlags) ([]gpath.PathBinding, bool, error) {
	m := opts.Meter
	tick := pg.NewTicker(m, opts.Counters)
	mach := newANFAMachine(g, a)
	seen := map[string]struct{}{}
	var out []gpath.PathBinding

	var objs []graph.Object // current path object sequence
	var binds []struct {
		v string
		o graph.Object
	}
	usedNodes := map[int]struct{}{}
	usedEdges := map[int]struct{}{}
	limitHit := false
	truncated := false
	var stopErr error

	emit := func() {
		p, err := gpath.New(g, objs...)
		if err != nil {
			panic("dlrpq: built invalid path: " + err.Error())
		}
		var mu gpath.Binding
		for _, b := range binds {
			if mu == nil {
				mu = gpath.Binding{}
			}
			mu[b.v] = append(mu[b.v], b.o)
		}
		pb := gpath.PathBinding{Path: p, Binding: mu}
		k := pb.Key()
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out = append(out, pb)
			if err := m.AddRows(1); err != nil {
				stopErr = err
				return
			}
			if opts.Limit > 0 && len(out) >= opts.Limit && flags&(modeSimple|modeTrail) != 0 {
				limitHit = true
			}
		}
	}

	var dfs func(cfg config, edgesUsed int, sinceEdge map[string]struct{})
	dfs = func(cfg config, edgesUsed int, sinceEdge map[string]struct{}) {
		if limitHit || stopErr != nil {
			return
		}
		if err := tick.Step(); err != nil {
			stopErr = err
			return
		}
		if a.Accept[cfg.state] && cfg.hasObj {
			if dst == -1 || endpointOK(g, cfg, dst) {
				if flags&flagExact == 0 || edgesUsed == opts.MaxLen {
					emit()
				}
			}
		}
		for _, m := range successors(g, mach, cfg, src) {
			if m.cost > 0 {
				if opts.MaxLen > 0 && edgesUsed+1 > opts.MaxLen {
					truncated = true
					continue
				}
				if flags&modeTrail != 0 {
					if _, used := usedEdges[m.appObj.Index()]; used {
						continue
					}
				}
			}
			if m.appended && m.appObj.IsNode() && flags&modeSimple != 0 {
				if _, used := usedNodes[m.appObj.Index()]; used {
					continue
				}
			}
			nextSince := sinceEdge
			if m.cost > 0 {
				nextSince = map[string]struct{}{}
			} else {
				k := m.next.key()
				if _, loop := sinceEdge[k]; loop {
					continue // idle derivation loop
				}
				nextSince = cloneSet(sinceEdge)
				nextSince[k] = struct{}{}
			}

			if m.appended {
				objs = append(objs, m.appObj)
				if m.appObj.IsNode() {
					usedNodes[m.appObj.Index()] = struct{}{}
				} else {
					usedEdges[m.appObj.Index()] = struct{}{}
				}
			}
			hadBind := false
			if m.bindVar != "" {
				binds = append(binds, struct {
					v string
					o graph.Object
				}{m.bindVar, m.bindObj})
				hadBind = true
			}

			dfs(m.next, edgesUsed+m.cost, nextSince)

			if hadBind {
				binds = binds[:len(binds)-1]
			}
			if m.appended {
				objs = objs[:len(objs)-1]
				if m.appObj.IsNode() {
					delete(usedNodes, m.appObj.Index())
				} else {
					delete(usedEdges, m.appObj.Index())
				}
			}
		}
	}

	start := config{state: a.Start}
	dfs(start, 0, map[string]struct{}{start.key(): {}})
	if stopErr == nil {
		stopErr = tick.Flush()
	}
	if stopErr != nil {
		return nil, false, stopErr
	}
	return out, truncated, nil
}

func cloneSet(s map[string]struct{}) map[string]struct{} {
	out := make(map[string]struct{}, len(s)+1)
	for k := range s {
		out[k] = struct{}{}
	}
	return out
}

// shortestDistance runs a 0–1 BFS over configurations to find the minimal
// len(p) of any result from src to dst. reachable is false when there is
// none. This is the register-automaton product search of Section 6.4: the
// configuration space is finite because ν ranges over the active domain.
func shortestDistance(g *graph.Graph, a *ANFA, src, dst int, m *eval.Meter, cnt *pg.Counters) (int, bool, error) {
	type qitem struct {
		cfg  config
		dist int
	}
	tick := pg.NewTicker(m, cnt)
	mach := newANFAMachine(g, a)
	dist := map[string]int{}
	start := config{state: a.Start}
	dist[start.key()] = 0
	deque := []qitem{{start, 0}}
	best := -1
	for len(deque) > 0 {
		if err := tick.Step(); err != nil {
			return 0, false, err
		}
		it := deque[0]
		deque = deque[1:]
		k := it.cfg.key()
		if d, ok := dist[k]; ok && d < it.dist {
			continue // stale entry
		}
		if a.Accept[it.cfg.state] && endpointOK(g, it.cfg, dst) {
			if best == -1 || it.dist < best {
				best = it.dist
			}
		}
		if best != -1 && it.dist >= best {
			continue
		}
		for _, m := range successors(g, mach, it.cfg, src) {
			nd := it.dist + m.cost
			nk := m.next.key()
			if d, ok := dist[nk]; !ok || nd < d {
				dist[nk] = nd
				if m.cost == 0 {
					deque = append([]qitem{{m.next, nd}}, deque...)
				} else {
					deque = append(deque, qitem{m.next, nd})
				}
			}
		}
	}
	if err := tick.Flush(); err != nil {
		return 0, false, err
	}
	if best == -1 {
		return 0, false, nil
	}
	return best, true, nil
}

// deepen implements Limit-only mode-all enumeration by iterative deepening
// on path length, stopping when the limit is reached or the search space is
// exhausted (no branch hit the depth bound). Re-searched configurations are
// re-charged to the meter: the repeated work is real work.
func deepen(g *graph.Graph, a *ANFA, src, dst, limit int, m *eval.Meter, cnt *pg.Counters) ([]gpath.PathBinding, error) {
	for maxLen := 1; ; maxLen *= 2 {
		res, truncated, err := searchAnchor(g, a, src, dst, Options{MaxLen: maxLen, Meter: m, Counters: cnt}, 0)
		if err != nil {
			return nil, err
		}
		res = sortPBs(res, 0)
		if len(res) >= limit {
			return res[:limit], nil
		}
		if !truncated {
			return res, nil
		}
	}
}

func sortPBs(pbs []gpath.PathBinding, limit int) []gpath.PathBinding {
	keysort.Sort(pbs, func(i int) (int, string) { return pbs[i].Path.Len(), pbs[i].Key() })
	if limit > 0 && len(pbs) > limit {
		pbs = pbs[:limit]
	}
	return pbs
}
