package gpath

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphquery/internal/graph"
)

func obj(i int16, isEdge bool) graph.Object {
	idx := int(i)
	if idx < 0 {
		idx = -idx
	}
	if isEdge {
		return graph.MakeEdgeObject(idx)
	}
	return graph.MakeNodeObject(idx)
}

func TestListConcat(t *testing.T) {
	a := List{obj(1, true), obj(2, true)}
	b := List{obj(3, false)}
	got := ConcatLists(a, b)
	if len(got) != 3 || got[0] != a[0] || got[2] != b[0] {
		t.Errorf("ConcatLists = %v", got)
	}
	if !ConcatLists(nil, a).Equal(a) || !ConcatLists(a, nil).Equal(a) {
		t.Error("empty list must be identity")
	}
}

func TestListConcatDoesNotAliasInputs(t *testing.T) {
	a := make(List, 1, 4) // spare capacity to catch in-place append aliasing
	a[0] = obj(1, true)
	c1 := ConcatLists(a, List{obj(2, true)})
	c2 := ConcatLists(a, List{obj(3, true)})
	if c1[1] == c2[1] {
		t.Fatal("ConcatLists must not share underlying storage between results")
	}
}

func TestBindingMonoidLaws(t *testing.T) {
	// µ·µ₀ = µ = µ₀·µ and associativity, via testing/quick over small
	// randomly generated bindings.
	mk := func(ks []uint8) Binding {
		m := Binding{}
		for i, k := range ks {
			z := string(rune('x' + i%3))
			m[z] = append(m[z], obj(int16(k), k%2 == 0))
		}
		if len(m) == 0 {
			return nil
		}
		return m
	}
	identity := func(ks []uint8) bool {
		m := mk(ks)
		return ConcatBindings(m, EmptyBinding()).Equal(m) &&
			ConcatBindings(EmptyBinding(), m).Equal(m)
	}
	if err := quick.Check(identity, nil); err != nil {
		t.Errorf("identity law: %v", err)
	}
	assoc := func(a, b, c []uint8) bool {
		x, y, z := mk(a), mk(b), mk(c)
		l := ConcatBindings(ConcatBindings(x, y), z)
		r := ConcatBindings(x, ConcatBindings(y, z))
		return l.Equal(r)
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Errorf("associativity law: %v", err)
	}
}

func TestBindingSingletonAndGet(t *testing.T) {
	o := obj(7, true)
	m := Singleton("z", o)
	if got := m.Get("z"); len(got) != 1 || got[0] != o {
		t.Errorf("Get(z) = %v", got)
	}
	if got := m.Get("w"); len(got) != 0 {
		t.Errorf("Get(w) = %v, want empty", got)
	}
}

func TestBindingConcatPointwise(t *testing.T) {
	m1 := Binding{"z": List{obj(1, true)}, "w": List{obj(2, false)}}
	m2 := Binding{"z": List{obj(3, true)}}
	got := ConcatBindings(m1, m2)
	if !got.Get("z").Equal(List{obj(1, true), obj(3, true)}) {
		t.Errorf("z = %v", got.Get("z"))
	}
	if !got.Get("w").Equal(List{obj(2, false)}) {
		t.Errorf("w = %v", got.Get("w"))
	}
}

func TestBindingEqualIgnoresEmptySupport(t *testing.T) {
	m1 := Binding{"z": List{obj(1, true)}, "w": List{}}
	m2 := Binding{"z": List{obj(1, true)}}
	if !m1.Equal(m2) || !m2.Equal(m1) {
		t.Error("bindings differing only in empty lists must be equal")
	}
	if len(m1.Vars()) != 1 || m1.Vars()[0] != "z" {
		t.Errorf("Vars = %v", m1.Vars())
	}
}

func TestBindingKeyStability(t *testing.T) {
	m1 := Binding{"a": List{obj(1, true)}, "b": List{obj(2, false)}}
	m2 := Binding{"b": List{obj(2, false)}, "a": List{obj(1, true)}}
	if m1.Key() != m2.Key() {
		t.Error("Key must be order-independent")
	}
	m3 := Binding{"a": List{obj(1, true)}}
	if m1.Key() == m3.Key() {
		t.Error("different bindings must have different keys")
	}
}

func TestBindingFormat(t *testing.T) {
	g := graph.NewBuilder().
		AddNode("u", "", nil).AddNode("v", "", nil).
		AddEdge("t3", "a", "u", "v", nil).
		MustBuild()
	m := Singleton("z", graph.MakeEdgeObject(g.MustEdge("t3")))
	if got := m.Format(g); got != "{z -> list(t3)}" {
		t.Errorf("Format = %q", got)
	}
}

func TestPathBindingKey(t *testing.T) {
	g := graph.NewBuilder().
		AddNode("u", "", nil).AddNode("v", "", nil).
		AddEdge("e", "a", "u", "v", nil).
		MustBuild()
	p := Triple(g, 0)
	pb1 := PathBinding{Path: p, Binding: Singleton("z", graph.MakeEdgeObject(0))}
	pb2 := PathBinding{Path: p, Binding: nil}
	if pb1.Key() == pb2.Key() {
		t.Error("same path, different bindings: keys must differ")
	}
}

// TestPathBindingKeyOrder checks that comparing PathBinding keys orders
// pairs by path key, then binding key, including when one path key is a
// prefix of the other.
func TestPathBindingKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randPB := func() PathBinding {
		objs := make([]graph.Object, rng.Intn(4))
		for i := range objs {
			objs[i] = obj(int16(rng.Intn(12)), i%2 == 1)
		}
		var b Binding
		if rng.Intn(2) == 0 {
			b = Singleton([]string{"y", "z"}[rng.Intn(2)], obj(int16(rng.Intn(12)), true))
		}
		return PathBinding{Path: Path{objs: objs}, Binding: b}
	}
	for i := 0; i < 2000; i++ {
		a, b := randPB(), randPB()
		want := a.Path.Key() < b.Path.Key() ||
			(a.Path.Key() == b.Path.Key() && a.Binding.Key() < b.Binding.Key())
		if got := a.Key() < b.Key(); got != want {
			t.Fatalf("%q < %q = %v, want %v", a.Key(), b.Key(), got, want)
		}
	}
}
