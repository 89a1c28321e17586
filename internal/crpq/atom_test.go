package crpq

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"graphquery/internal/eval"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
)

// atomGraph is a small graph with a-self-loops on n1 and n3, a chain
// n0 →a n2 →a n4 →a n1, and b edges n4 →b n3 →b n0. Removing n3 and n4
// through a mutation overlay tombstones them and cascades to their edges.
func atomGraph(t *testing.T, overlay bool) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	for i := 0; i < 6; i++ {
		b.AddNode(graph.NodeID(fmt.Sprintf("n%d", i)), "", nil)
	}
	for i, e := range [][3]string{
		{"a", "n1", "n1"}, {"a", "n3", "n3"},
		{"a", "n0", "n2"}, {"a", "n2", "n4"}, {"a", "n4", "n1"},
		{"b", "n4", "n3"}, {"b", "n3", "n0"},
	} {
		b.AddEdge(graph.EdgeID(fmt.Sprintf("e%d", i)), e[0], graph.NodeID(e[1]), graph.NodeID(e[2]), nil)
	}
	g := b.MustBuild()
	if !overlay {
		return g
	}
	g, err := g.Apply([]graph.Mutation{
		{Op: graph.MutRemoveNode, ID: "n3"},
		{Op: graph.MutRemoveNode, ID: "n4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAtomExistenceShapes pins the existence fast path on the atom shapes
// it special-cases: a shared endpoint variable, a constant source, a
// constant destination, and destinations tombstoned by an overlay.
func TestAtomExistenceShapes(t *testing.T) {
	for _, tc := range []struct {
		query   string
		overlay bool
		rows    int
		want    string
	}{
		{"q(x) :- a(x, x)", false, 2, "n1\nn3"},
		{"q(x) :- a(x, x)", true, 1, "n1"},
		{"q(x) :- a+(x, x)", false, 2, "n1\nn3"},
		{"q(y) :- a*(@n0, y)", false, 4, "n0\nn1\nn2\nn4"},
		{"q(y) :- a*(@n0, y)", true, 2, "n0\nn2"},
		{"q(x) :- a*(x, @n1)", false, 4, "n0\nn1\nn2\nn4"},
		{"q(x) :- a*(x, @n1)", true, 1, "n1"},
		{"q(x) :- a a(x, @n4)", false, 1, "n0"},
		{"q() :- a a(@n2, @n1)", false, 1, ""},
		{"q() :- a a(@n2, @n1)", true, 0, ""},
		{"q(x, y) :- a b(x, y)", false, 2, "n2, n3\nn3, n0"},
		{"q(x, y) :- a b(x, y)", true, 0, ""},
		{"q(x, y) :- (a | b)*(x, y), b(y, x)", false, 2, "n0, n3\nn3, n4"},
	} {
		g := atomGraph(t, tc.overlay)
		res, err := Eval(g, MustParse(tc.query), Options{})
		if err != nil {
			t.Fatalf("%s (overlay %v): %v", tc.query, tc.overlay, err)
		}
		if got := res.Format(g); len(res.Rows) != tc.rows || got != tc.want {
			t.Errorf("%s (overlay %v) = %d rows\n%s\nwant %d rows\n%s", tc.query, tc.overlay, len(res.Rows), got, tc.rows, tc.want)
		}
	}
}

// TestAtomExistenceMatchesPairwiseCheck compares every existence atom's
// relation against the per-pair evaluator the non-existence path uses
// (one shortest witness per candidate pair), on random graphs with and
// without tombstoned nodes.
func TestAtomExistenceMatchesPairwiseCheck(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		base := gen.Random(24, 60, []string{"a", "b"}, seed)
		ov, err := base.Apply([]graph.Mutation{
			{Op: graph.MutRemoveNode, ID: "v2"},
			{Op: graph.MutRemoveNode, ID: "v5"},
			{Op: graph.MutRemoveNode, ID: "v17"},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*graph.Graph{base, ov} {
			for _, qs := range []string{
				"q(x, y) :- a b*(x, y)",
				"q(x) :- (a | b)+(x, x)",
				"q(y) :- a*(@v1, y)",
				"q(x) :- b a*(x, @v3)",
				"q(y) :- (a b)*(@v0, y)",
			} {
				a := MustParse(qs).Atoms[0]
				rel, err := evalAtom(g, a, Options{})
				if err != nil {
					t.Fatal(err)
				}
				var want [][]OutValue
				srcs, _ := termCandidates(g, a.Src)
				dsts, _ := termCandidates(g, a.Dst)
				sameVar := !a.Src.IsConst && !a.Dst.IsConst && a.Src.Var == a.Dst.Var
				for _, u := range srcs {
					for _, v := range dsts {
						if sameVar && u != v {
							continue
						}
						pbs, err := evalAtomBetweenMode(g, a, u, v, eval.Shortest, Options{})
						if err != nil {
							t.Fatal(err)
						}
						if len(pbs) == 0 {
							continue
						}
						var row []OutValue
						if !a.Src.IsConst {
							row = append(row, OutValue{Node: u})
						}
						if !a.Dst.IsConst && !sameVar {
							row = append(row, OutValue{Node: v})
						}
						want = append(want, row)
					}
				}
				if fmt.Sprint(rel.tuples) != fmt.Sprint(want) {
					t.Errorf("seed %d %s (overlay %v):\n got %v\nwant %v", seed, qs, g != base, rel.tuples, want)
				}
			}
		}
	}
}

// TestMutualFollowsScalesLinearly guards against the existence fast path
// going back to probing every node per source: mutual follows on a 4×
// larger social graph must take less than 8× as long (best of 3 each). A
// scan of each reach set gives about 4–5×; a probe of all |V| candidates
// per source gives about 14–16×.
func TestMutualFollowsScalesLinearly(t *testing.T) {
	q := MustParse("q(x,y) :- follows(x,y), follows(y,x)")
	best := func(n int) time.Duration {
		g := gen.Social(n, 1)
		var min time.Duration
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := Eval(g, q, Options{}); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); i == 0 || d < min {
				min = d
			}
		}
		return min
	}
	small, large := best(1000), best(4000)
	ratio := float64(large) / float64(small)
	t.Logf("social-1000 %v, social-4000 %v: %.1f×", small, large, ratio)
	if ratio >= 8 {
		t.Errorf("social-4000 took %v, %.1f× social-1000's %v; want < 8×", large, ratio, small)
	}
}

// cancelAfter is a context that reports itself canceled once its Err has
// been called left times, so a query polls it a fixed number of times
// before it sees the cancellation. Its Done channel is never closed; it
// only marks the context as cancelable, so evaluation meters it.
type cancelAfter struct {
	context.Context
	done chan struct{}
	left atomic.Int64
}

func (c *cancelAfter) Done() <-chan struct{} { return c.done }

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestEvalCanceledBetweenSources cancels a multi-source CRPQ after its
// atoms have started and checks that it returns ErrCanceled, and that the
// per-source worker pool has exited by the time EvalCtx returns.
func TestEvalCanceledBetweenSources(t *testing.T) {
	g := gen.Social(2000, 1)
	q := MustParse("q(x,y) :- follows(x,y), follows(y,x)")
	for _, par := range []int{1, 4} {
		before := runtime.NumGoroutine()
		ctx := &cancelAfter{Context: context.Background(), done: make(chan struct{})}
		ctx.left.Store(100)
		_, err := EvalCtx(ctx, g, q, Options{Parallelism: par})
		if !errors.Is(err, eval.ErrCanceled) {
			t.Fatalf("parallelism %d: err = %v, want ErrCanceled", par, err)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("parallelism %d: %d goroutines after EvalCtx returned, %d before", par, n, before)
		}
	}
}
