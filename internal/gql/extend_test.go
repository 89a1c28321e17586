package gql

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
)

// refEval is evalRec with every node pattern materialised as one match per
// graph node and joined by concatMatches, the evaluation the node-pattern
// extension replaces.
func refEval(g *graph.Graph, p Pattern, opts Options) ([]Match, error) {
	switch n := p.(type) {
	case ConcatP:
		left, err := refEval(g, n.Left, opts)
		if err != nil {
			return nil, err
		}
		right, err := refEval(g, n.Right, opts)
		if err != nil {
			return nil, err
		}
		return concatMatches(g, left, right, opts)
	case UnionP:
		left, err := refEval(g, n.Left, opts)
		if err != nil {
			return nil, err
		}
		right, err := refEval(g, n.Right, opts)
		if err != nil {
			return nil, err
		}
		return dedup(append(left, right...)), nil
	case RepeatP:
		base, err := refEval(g, n.Sub, opts)
		if err != nil {
			return nil, err
		}
		return repeatMatches(g, n, base, opts)
	case CondP:
		ms, err := refEval(g, n.Sub, opts)
		if err != nil {
			return nil, err
		}
		var out []Match
		for _, m := range ms {
			if holdsOnSingletons(g, n.Cond, m.B) {
				out = append(out, m)
			}
		}
		return out, nil
	default: // NodeP, EdgeP
		return evalRec(g, p, opts)
	}
}

// labelledRandom is a seeded random multigraph (self-loops and parallel
// edges included) whose nodes carry label P or Q and whose nodes and edges
// carry an integer property k.
func labelledRandom(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(graph.NodeID(fmt.Sprintf("v%d", i)), []string{"P", "Q"}[rng.Intn(2)],
			graph.Props{"k": graph.Int(int64(rng.Intn(100)))})
	}
	for e := 0; e < m; e++ {
		b.AddEdge(graph.EdgeID(fmt.Sprintf("e%d", e)), []string{"a", "b"}[rng.Intn(2)],
			graph.NodeID(fmt.Sprintf("v%d", rng.Intn(n))), graph.NodeID(fmt.Sprintf("v%d", rng.Intn(n))),
			graph.Props{"k": graph.Int(int64(rng.Intn(100)))})
	}
	return b.MustBuild()
}

// TestNodeExtensionMatchesMaterialisedJoin is the differential test of the
// node-pattern extension: evalRec must return exactly the matches, in the
// same order, and the same errors as joining fully materialised node
// matches with concatMatches, on seeded random graphs and on overlays with
// tombstoned nodes.
func TestNodeExtensionMatchesMaterialisedJoin(t *testing.T) {
	patterns := []string{
		"(x)-[:a]->(x)",                         // repeated variable
		"(x)-[:a]->(y)-[:b]->(x)",               // repeated variable across hops
		"(x:P)-[:a]->(y:Q)",                     // labelled endpoints
		"()-[:a]->(:P)",                         // anonymous endpoints
		"(:Q)-[e]->()-[:b]->(y)",                // node first, anonymous middle
		"-[e:a]->(y)",                           // node last only
		"(x)-[:a]->",                            // node first only
		"(x)(y)",                                // two node patterns
		"(x:P)(x)",                              // repeated node variable
		"((x)-[:a]->(y) | (x)-[:b]->(z))(w)",    // node after a union
		"(w:Q)((x)-[:a]->(y) | (y:P)-[:b]->())", // node before a union
		"((x) | -[y:a]->)(x)",                   // partial bindings meet a node
		"((x) | (x)-[:a]->(y))(y)",              // partial bindings, node var bound in one branch
		"((x)-[:a]->(y) | (x)-[:a]->())(y)",     // branches collide once the node binds y
		"(x)((x)-[:a]->(y) | ()-[:a]->(y))",     // branches collide once the node binds x
		"(x)((y)-[:a]->(z)){1,2}(w)",            // nodes inside and around {m,n}
		"(x)(()-[:a]->()){0,3}(y:P)",            // anonymous nodes inside {m,n}
		"((x)-[:a]->(y)){1,2}(x)",               // group variable meets a node: mixed binding
		"((x)-[e:a]->(y) WHERE e.k < 50)(z:Q)",  // node after WHERE
		"(z)((x)-[e:b]->(y:P) WHERE x.k > 30)",  // node before WHERE, node inside
		"((x:P)-[:a]->(y) WHERE x.k < y.k)",     // node inside WHERE
	}
	graphs := map[string]*graph.Graph{}
	for seed := int64(1); seed <= 3; seed++ {
		g := labelledRandom(14, 30, seed)
		graphs[fmt.Sprintf("random-%d", seed)] = g
		ov, err := g.Apply([]graph.Mutation{
			{Op: graph.MutRemoveNode, ID: "v1"},
			{Op: graph.MutRemoveNode, ID: "v6"},
			{Op: graph.MutRemoveNode, ID: "v9"},
		})
		if err != nil {
			t.Fatal(err)
		}
		graphs[fmt.Sprintf("random-%d-tombstoned", seed)] = ov
	}
	matched, failed := 0, 0
	for name, g := range graphs {
		for _, ps := range patterns {
			p := MustParsePattern(ps)
			for _, maxLen := range []int{0, 2} {
				opts := Options{MaxLen: maxLen}
				got, gotErr := evalRec(g, p, opts)
				want, wantErr := refEval(g, p, opts)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Errorf("%s %s MaxLen %d: err %v, want %v", name, ps, maxLen, gotErr, wantErr)
					continue
				}
				if wantErr != nil {
					failed++
				}
				matched += len(want)
				if len(got) != len(want) {
					t.Errorf("%s %s MaxLen %d: %d matches, want %d", name, ps, maxLen, len(got), len(want))
					continue
				}
				for i := range got {
					if got[i].key() != want[i].key() {
						t.Errorf("%s %s MaxLen %d: match %d = %s, want %s", name, ps, maxLen, i, got[i].key(), want[i].key())
						break
					}
				}
			}
		}
	}
	if matched == 0 || failed == 0 {
		t.Errorf("differential cases produced %d matches and %d errors; want both", matched, failed)
	}
}

// TestTwoHopBudget checks that a two-hop pattern, whose node patterns no
// longer materialise one match per node, still charges its work to the
// states budget: the pattern's own unbounded step count fits exactly,
// and half of it trips budget_exceeded.
func TestTwoHopBudget(t *testing.T) {
	g := gen.Social(1000, 1)
	p := MustParsePattern("(x)-[:knows]->(y)-[:knows]->(z)")
	m := pg.NewMeter(context.Background(), pg.Budget{MaxStates: 1 << 40})
	ms, err := EvalPatternMeter(g, p, Options{}, m)
	if err != nil {
		t.Fatal(err)
	}
	steps := m.States()
	// Each edge pattern scans every edge; (x) and (y) each check one
	// candidate per knows edge; the edge-to-edge join charges one step per
	// joined pair and (z) one per two-hop candidate, and both equal the
	// number of matches.
	knows := 0
	for e := 0; e < g.NumEdges(); e++ {
		if g.Edge(e).Label == "knows" {
			knows++
		}
	}
	if want := int64(2*g.NumEdges() + 2*knows + 2*len(ms)); steps != want {
		t.Fatalf("%d steps, want %d (%d edges, %d knows, %d matches)", steps, want, g.NumEdges(), knows, len(ms))
	}
	if _, err := EvalPatternCtx(context.Background(), g, p, Options{}, pg.Budget{MaxStates: steps}); err != nil {
		t.Fatalf("budget of exactly %d steps: %v", steps, err)
	}
	_, err = EvalPatternCtx(context.Background(), g, p, Options{}, pg.Budget{MaxStates: steps / 2})
	var be *pg.BudgetError
	if !errors.Is(err, pg.ErrBudgetExceeded) || !errors.As(err, &be) || be.Resource != "states" {
		t.Fatalf("budget of %d steps: err = %v, want a states budget_exceeded", steps/2, err)
	}
}
