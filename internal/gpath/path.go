// Package gpath implements the path and list machinery of Section 2 of the
// paper ("Paths and Lists"): paths as alternating sequences of nodes and
// edges with all four endpoint shapes (node-to-node, node-to-edge,
// edge-to-node, edge-to-edge), the paper's path concatenation with its
// boundary-collapse rule, path length and edge labels, the simple/trail
// predicates behind path modes, and lists and variable bindings µ.
//
// The symmetric treatment of nodes and edges — in particular that
// path(o)·path(o) = path(o) for edges o as well as nodes — is the design
// decision the paper singles out (Example 10) as the enabler for the
// symmetric dl-RPQs of Section 3.2.1.
package gpath

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"graphquery/internal/graph"
)

// ErrNotAPath reports an object sequence that is not a valid path in the
// graph: non-alternating, or an edge not incident to its neighbors.
var ErrNotAPath = errors.New("gpath: object sequence is not a valid path")

// Path is a (possibly empty) path p = path(o₁,…,oₙ): a strictly alternating
// sequence of nodes and edges in which every edge connects the nodes around
// it. The zero Path is the empty path path().
//
// Paths are immutable; all operations return new values.
type Path struct {
	objs []graph.Object
}

// Empty returns the empty path path().
func Empty() Path { return Path{} }

// OfNode returns the single-object path path(u) for node index u.
func OfNode(u int) Path { return Path{objs: []graph.Object{graph.MakeNodeObject(u)}} }

// OfEdge returns the single-object path path(e) for edge index e.
func OfEdge(e int) Path { return Path{objs: []graph.Object{graph.MakeEdgeObject(e)}} }

// Triple returns the node-to-node path path(src(e), e, tgt(e)) for edge e.
func Triple(g *graph.Graph, e int) Path {
	ed := g.Edge(e)
	return Path{objs: []graph.Object{
		graph.MakeNodeObject(ed.Src),
		graph.MakeEdgeObject(e),
		graph.MakeNodeObject(ed.Tgt),
	}}
}

// New validates objs as a path in g and returns it.
// It enforces strict alternation and the incidence conditions (a) and (b)
// from Section 2 ("Paths and Lists"); e.g. path(a1, t1, t1) is rejected.
func New(g *graph.Graph, objs ...graph.Object) (Path, error) {
	for i := 1; i < len(objs); i++ {
		prev, cur := objs[i-1], objs[i]
		if prev.IsEdge() == cur.IsEdge() {
			return Path{}, fmt.Errorf("%w: objects %d and %d do not alternate", ErrNotAPath, i-1, i)
		}
		if prev.IsEdge() {
			if g.Edge(prev.Index()).Tgt != cur.Index() {
				return Path{}, fmt.Errorf("%w: edge at %d does not end at node at %d", ErrNotAPath, i-1, i)
			}
		} else if cur.IsEdge() {
			if g.Edge(cur.Index()).Src != prev.Index() {
				return Path{}, fmt.Errorf("%w: edge at %d does not start at node at %d", ErrNotAPath, i, i-1)
			}
		}
	}
	cp := make([]graph.Object, len(objs))
	copy(cp, objs)
	return Path{objs: cp}, nil
}

// IsEmpty reports whether p is path().
func (p Path) IsEmpty() bool { return len(p.objs) == 0 }

// NumObjects returns the number of objects in the sequence (n, not length).
func (p Path) NumObjects() int { return len(p.objs) }

// Object returns oᵢ (0-based).
func (p Path) Object(i int) graph.Object { return p.objs[i] }

// Objects returns a copy of the object sequence.
func (p Path) Objects() []graph.Object {
	cp := make([]graph.Object, len(p.objs))
	copy(cp, p.objs)
	return cp
}

// StartsWithNode reports whether o₁ is a node. False for the empty path.
func (p Path) StartsWithNode() bool { return len(p.objs) > 0 && p.objs[0].IsNode() }

// EndsWithNode reports whether oₙ is a node. False for the empty path.
func (p Path) EndsWithNode() bool { return len(p.objs) > 0 && p.objs[len(p.objs)-1].IsNode() }

// Src returns src(p): o₁ if it is a node, else src(o₁). ok is false for the
// empty path.
func (p Path) Src(g *graph.Graph) (int, bool) {
	if len(p.objs) == 0 {
		return 0, false
	}
	o := p.objs[0]
	if o.IsNode() {
		return o.Index(), true
	}
	return g.Edge(o.Index()).Src, true
}

// Tgt returns tgt(p): oₙ if it is a node, else tgt(oₙ). ok is false for the
// empty path.
func (p Path) Tgt(g *graph.Graph) (int, bool) {
	if len(p.objs) == 0 {
		return 0, false
	}
	o := p.objs[len(p.objs)-1]
	if o.IsNode() {
		return o.Index(), true
	}
	return g.Edge(o.Index()).Tgt, true
}

// Len returns len(p), the number of edge occurrences (counted with
// multiplicity).
func (p Path) Len() int {
	n := 0
	for _, o := range p.objs {
		if o.IsEdge() {
			n++
		}
	}
	return n
}

// ELab returns elab(p), the concatenation of the labels of the edges of p
// (nodes contribute ε).
func (p Path) ELab(g *graph.Graph) []string {
	var out []string
	for _, o := range p.objs {
		if o.IsEdge() {
			out = append(out, g.Edge(o.Index()).Label)
		}
	}
	return out
}

// Concat computes p·q per the paper's definition:
//
//   - if oₙ is an edge and tgt(oₙ) = o′₁ (a node): juxtapose;
//   - if o′₁ is an edge and src(o′₁) = oₙ (a node): juxtapose;
//   - if oₙ = o′₁ (same object, node or edge): collapse the shared object;
//   - p·path() = p = path()·p.
//
// ok is false when none of the rules applies (the concatenation is
// undefined). The collapse rule gives path(o)·path(o) = path(o) for both
// nodes and edges — the symmetry the paper argues for.
func Concat(g *graph.Graph, p, q Path) (Path, bool) {
	if p.IsEmpty() {
		return q, true
	}
	if q.IsEmpty() {
		return p, true
	}
	last, first := p.objs[len(p.objs)-1], q.objs[0]
	switch {
	case last == first:
		return join(p.objs, q.objs[1:]), true
	case last.IsEdge() && first.IsNode() && g.Edge(last.Index()).Tgt == first.Index():
		return join(p.objs, q.objs), true
	case first.IsEdge() && last.IsNode() && g.Edge(first.Index()).Src == last.Index():
		return join(p.objs, q.objs), true
	default:
		return Path{}, false
	}
}

func join(a, b []graph.Object) Path {
	objs := make([]graph.Object, 0, len(a)+len(b))
	objs = append(objs, a...)
	objs = append(objs, b...)
	return Path{objs: objs}
}

// IsSimple reports whether p is a simple path: no node occurs twice.
func (p Path) IsSimple() bool {
	seen := make(map[int]struct{})
	for _, o := range p.objs {
		if o.IsNode() {
			if _, dup := seen[o.Index()]; dup {
				return false
			}
			seen[o.Index()] = struct{}{}
		}
	}
	return true
}

// IsTrail reports whether p is a trail: no edge occurs twice.
func (p Path) IsTrail() bool {
	seen := make(map[int]struct{})
	for _, o := range p.objs {
		if o.IsEdge() {
			if _, dup := seen[o.Index()]; dup {
				return false
			}
			seen[o.Index()] = struct{}{}
		}
	}
	return true
}

// Nodes returns the node indexes on p, in order, with multiplicity.
func (p Path) Nodes() []int {
	var out []int
	for _, o := range p.objs {
		if o.IsNode() {
			out = append(out, o.Index())
		}
	}
	return out
}

// Edges returns the edge indexes on p, in order, with multiplicity. This is
// Cypher's E(p) list extraction (Section 5.2 "Turning to Lists for Help").
func (p Path) Edges() []int {
	var out []int
	for _, o := range p.objs {
		if o.IsEdge() {
			out = append(out, o.Index())
		}
	}
	return out
}

// Key returns a canonical string identifying the object sequence, for use as
// a deduplication map key (set semantics).
func (p Path) Key() string { return objectsKey(p.objs) }

// objectsKey renders an object sequence as "N3.E7.N4.": the key format
// shared by paths and lists.
func objectsKey(objs []graph.Object) string {
	b := make([]byte, 0, 8*len(objs))
	for _, o := range objs {
		b = AppendObjectKey(b, o)
		b = append(b, '.')
	}
	return string(b)
}

// AppendObjectKey appends the canonical key of one object, "N<index>" or
// "E<index>", to b.
func AppendObjectKey(b []byte, o graph.Object) []byte {
	if o.IsEdge() {
		b = append(b, 'E')
	} else {
		b = append(b, 'N')
	}
	return strconv.AppendInt(b, int64(o.Index()), 10)
}

// Equal reports whether p and q are the same object sequence.
func (p Path) Equal(q Path) bool {
	if len(p.objs) != len(q.objs) {
		return false
	}
	for i := range p.objs {
		if p.objs[i] != q.objs[i] {
			return false
		}
	}
	return true
}

// Format renders p as path(o₁,…,oₙ) using external IDs, e.g.
// "path(a1, t1, a3)".
func (p Path) Format(g *graph.Graph) string {
	parts := make([]string, len(p.objs))
	for i, o := range p.objs {
		parts[i] = g.ObjectID(o)
	}
	return "path(" + strings.Join(parts, ", ") + ")"
}
