package gpath

import (
	"sort"
	"strings"

	"graphquery/internal/graph"
)

// List is a list(o₁,…,oₙ) of graph objects, the image type of list-variable
// bindings (Section 3.1.4).
type List []graph.Object

// ConcatLists returns the concatenation list(o₁,…,oₙ,o′₁,…,o′ₘ).
func ConcatLists(a, b List) List {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(List, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// Equal reports element-wise equality.
func (l List) Equal(m List) bool {
	if len(l) != len(m) {
		return false
	}
	for i := range l {
		if l[i] != m[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string for deduplication.
func (l List) Key() string { return objectsKey(l) }

// Format renders the list with external IDs, e.g. "list(t2, t3)".
func (l List) Format(g *graph.Graph) string {
	parts := make([]string, len(l))
	for i, o := range l {
		parts[i] = g.ObjectID(o)
	}
	return "list(" + strings.Join(parts, ", ") + ")"
}

// Binding is a binding µ: Var → lists of graph objects. Per Section 3.1.4,
// bindings are conceptually total on Var but map all but finitely many
// variables to the empty list; we represent only the non-empty support, so
// the zero Binding is µ₀ (every variable ↦ list()).
type Binding map[string]List

// EmptyBinding returns µ₀.
func EmptyBinding() Binding { return nil }

// Singleton returns µ_{z↦o}: z maps to list(o), everything else to list().
func Singleton(z string, o graph.Object) Binding {
	return Binding{z: List{o}}
}

// Get returns µ(z) (the empty list when z is outside the support).
func (m Binding) Get(z string) List { return m[z] }

// ConcatBindings returns µ₁·µ₂, the pointwise list concatenation.
func ConcatBindings(a, b Binding) Binding {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(Binding, len(a)+len(b))
	for z, l := range a {
		out[z] = l
	}
	for z, l := range b {
		out[z] = ConcatLists(out[z], l)
	}
	return out
}

// Equal reports whether two bindings agree on every variable.
func (m Binding) Equal(n Binding) bool {
	for z, l := range m {
		if !l.Equal(n[z]) {
			return false
		}
	}
	for z, l := range n {
		if _, ok := m[z]; !ok && len(l) > 0 {
			return false
		}
	}
	return true
}

// Vars returns the sorted variables with non-empty lists.
func (m Binding) Vars() []string {
	vs := make([]string, 0, len(m))
	for z, l := range m {
		if len(l) > 0 {
			vs = append(vs, z)
		}
	}
	sort.Strings(vs)
	return vs
}

// Key returns a canonical string for deduplication (set semantics over
// (path, binding) pairs).
func (m Binding) Key() string {
	vs := m.Vars()
	var b strings.Builder
	for _, z := range vs {
		b.WriteString(z)
		b.WriteByte('=')
		b.WriteString(m[z].Key())
		b.WriteByte(';')
	}
	return b.String()
}

// Format renders the binding with external IDs, e.g. "{z ↦ list(t2, t3)}".
func (m Binding) Format(g *graph.Graph) string {
	vs := m.Vars()
	parts := make([]string, len(vs))
	for i, z := range vs {
		parts[i] = z + " -> " + m[z].Format(g)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// PathBinding is a pair (p, µ) as produced by ℓ-RPQ and dl-RPQ evaluation.
type PathBinding struct {
	Path    Path
	Binding Binding
}

// Key returns a canonical deduplication key for the pair. Comparing keys
// orders pairs by path key, then binding key: the separator sorts below
// every byte that can follow a complete path key.
func (pb PathBinding) Key() string { return pb.Path.Key() + " " + pb.Binding.Key() }
