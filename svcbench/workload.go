package main

// The four workloads: which graphs the server holds, which requests the
// clients send, and how their reference results are computed.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"graphquery/internal/core"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/server"
)

// op is one read request of a workload's pool, with its expected result.
type op struct {
	id     int
	group  string // template name: ops of one group share a query text
	graph  string // served graph name
	req    server.QueryRequest
	body   []byte // encoded req
	stream bool   // NDJSON delivery
	kind   string // expected result kind
	want   fingerprint
}

// workload describes one traffic mix.
type workload struct {
	name    string
	clients int // closed-loop clients, capped at the CPU count
	// writeEvery, when positive, makes every writeEvery-th read of a client
	// followed by a mutate batch (mixed-write only).
	writeEvery int
	// catalog lists the read-only catalog graphs the server registers.
	catalog []string
	// mutable, when set, is a catalog graph whose copy is loaded over
	// POST /v1/graphs under liveName and mutated during the run.
	mutable string
	// replayPerGroup and replayReps size the traced run's per-layer replay:
	// ops per group, and timed rounds per op.
	replayPerGroup, replayReps int
	// primary is the served graph the generated requests are drawn on and
	// whose materialization the traced run times.
	primary string
	build   func(rng *rand.Rand, target string, g *graph.Graph) []*op
}

// liveName is the served name of mixed-write's mutable copy.
const liveName = "social-20000-live"

var workloads = map[string]*workload{
	// interactive runs one client on social-5000, so per-request work
	// rather than long searches sets its pace. It is not gated in
	// BENCHMARK.json: its timings follow host contention too closely.
	"interactive": {
		name: "interactive", clients: 1, replayPerGroup: 4, replayReps: 5,
		catalog: []string{"social-5000"}, primary: "social-5000",
		build: anchoredOps,
	},
	"analytic": {
		name: "analytic", clients: 1, replayPerGroup: 1, replayReps: 1,
		catalog: []string{"scalefree-1000", "social-20000"}, primary: "social-20000",
		build: func(*rand.Rand, string, *graph.Graph) []*op {
			var ops []*op
			for _, q := range []struct{ graph, query string }{
				{"scalefree-1000", "a*"},
				{"social-20000", "knows{1,3}"},
				{"social-20000", "follows follows"},
			} {
				for _, stream := range []bool{false, true} {
					ops = append(ops, &op{group: q.query, graph: q.graph, stream: stream,
						req: server.QueryRequest{Graph: q.graph, Query: q.query}})
				}
			}
			return ops
		},
	},
	"join": {
		name: "join", clients: 1, replayPerGroup: 1, replayReps: 1,
		catalog: []string{"social-5000"}, primary: "social-5000",
		build: func(*rand.Rand, string, *graph.Graph) []*op {
			var ops []*op
			for _, q := range []struct{ group, lang, query string }{
				{"mutual-follows", "", "q(x,y) :- follows(x,y), follows(y,x)"},
				{"two-hop-knows", "", "q(x,z) :- knows(x,y), knows(y,z)"},
				{"follows-triangle", "", "q(x,y,z) :- follows(x,y), follows(y,z), follows(z,x)"},
				{"anchored-two-hop", "", "q(y) :- knows(p17, z), knows(z, y)"},
				{"gql-follows", "gql", "(x:Person)-[:follows]->(y:Person)"},
				{"gql-two-hop-knows", "gql", "(x)-[:knows]->(y)-[:knows]->(z)"},
			} {
				ops = append(ops, &op{group: q.group, graph: "social-5000",
					req: server.QueryRequest{Graph: "social-5000", Lang: q.lang, Query: q.query}})
			}
			return ops
		},
	},
	"mixed-write": {
		name: "mixed-write", clients: 2, writeEvery: 4, replayPerGroup: 4, replayReps: 5,
		mutable: "social-20000", primary: liveName,
		build: func(rng *rand.Rand, target string, g *graph.Graph) []*op {
			ops := anchoredOps(rng, target, g)
			return append(ops, &op{group: "follows follows", graph: target,
				req: server.QueryRequest{Graph: target, Query: "follows follows"}})
		},
	},
}

// workloadNames lists the workloads in a fixed order.
var workloadNames = []string{"interactive", "analytic", "join", "mixed-write"}

// template is one anchored path query shape of the interactive mix.
type template struct {
	name, query, lang, mode string
	limit                   int
	labels                  []string // edge labels the query can walk
	maxHops                 int      // 0: unbounded
}

var anchoredTemplates = []template{
	{name: "shortest-knows", query: "(knows^z)+", mode: "shortest", labels: []string{"knows"}},
	{name: "shortest-knows-follows", query: "(knows | follows)*", mode: "shortest", labels: []string{"knows", "follows"}},
	{name: "simple-knows-follows-3", query: "(knows | follows){1,3}", mode: "simple", labels: []string{"knows", "follows"}, maxHops: 3},
	{name: "trail-knows", query: "knows+", mode: "trail", labels: []string{"knows"}},
	{name: "all-follows-4", query: "(follows^z){1,4}", mode: "all", limit: 10, labels: []string{"follows"}, maxHops: 4},
	{name: "pmr-knows", query: "knows*", lang: "pmr", limit: 10, labels: []string{"knows"}},
}

const (
	// pairsPerTemplate is large because the cost of one anchored search
	// spans two orders of magnitude: a small pool would make the mean cost,
	// and with it every timing, depend on the seed.
	pairsPerTemplate = 512
	// unconnectedEvery makes every eighth pair of a template one whose
	// target the source cannot reach, so the search runs to exhaustion.
	unconnectedEvery = 8
)

// anchoredOps draws source/target pairs for every anchored template:
// targets the source reaches under the template's labels and hop bound,
// plus a fixed share it does not reach.
func anchoredOps(rng *rand.Rand, target string, g *graph.Graph) []*op {
	var ops []*op
	n := g.NumNodes()
	for _, t := range anchoredTemplates {
		adj := adjacency(g, t.labels)
		for i := 0; i < pairsPerTemplate; i++ {
			unconnected := i%unconnectedEvery == unconnectedEvery-1
			var s, d int
			for {
				s = rng.Intn(n)
				order, seen := reach(adj, s, t.maxHops)
				if unconnected {
					if d = rng.Intn(n); d != s && !seen[d] {
						break
					}
					continue
				}
				if len(order) > 0 {
					d = order[rng.Intn(len(order))]
					break
				}
			}
			ops = append(ops, &op{group: t.name, graph: target, req: server.QueryRequest{
				Graph: target, Query: t.query, Lang: t.lang, Mode: t.mode, Limit: t.limit,
				From: string(g.Node(s).ID), To: string(g.Node(d).ID),
			}})
		}
	}
	return ops
}

// adjacency lists every node's out-neighbours over edges whose label is
// one of labels.
func adjacency(g *graph.Graph, labels []string) [][]int {
	ok := map[string]bool{}
	for _, l := range labels {
		ok[l] = true
	}
	adj := make([][]int, g.NumNodes())
	for u := range adj {
		for _, ei := range g.Out(u) {
			if ok[g.Edge(ei).Label] {
				adj[u] = append(adj[u], g.EdgeTgt(ei))
			}
		}
	}
	return adj
}

// reach returns the nodes reachable from s in 1..maxHops steps (any number
// when maxHops is 0), s excluded, in breadth-first order and as a set.
func reach(adj [][]int, s, maxHops int) ([]int, []bool) {
	seen := make([]bool, len(adj))
	var order []int
	frontier := []int{s}
	for hop := 1; len(frontier) > 0 && (maxHops == 0 || hop <= maxHops); hop++ {
		var next []int
		for _, u := range frontier {
			for _, v := range adj[u] {
				if v != s && !seen[v] {
					seen[v] = true
					next = append(next, v)
				}
			}
		}
		order = append(order, next...)
		frontier = next
	}
	return order, seen
}

// inputs is everything a run generates from its seed before the server
// exists: graphs, the mutable copy's load document, and the request pool
// with reference results.
type inputs struct {
	graphs  map[string]*graph.Graph // served name → base graph
	loadDoc []byte                  // POST /v1/graphs body (mixed-write)
	ops     []*op
	groups  [][]*op // ops by group, in pool order
}

// prepare generates a workload's inputs and their reference results.
func prepare(w *workload, seed int64) (*inputs, error) {
	in := &inputs{graphs: map[string]*graph.Graph{}}
	for _, name := range w.catalog {
		g, err := gen.Named(name)
		if err != nil {
			return nil, err
		}
		in.graphs[name] = g
	}
	if w.mutable != "" {
		g, err := gen.Named(w.mutable)
		if err != nil {
			return nil, err
		}
		in.graphs[liveName] = g
		var doc bytes.Buffer
		if err := graph.WriteJSON(&doc, g); err != nil {
			return nil, err
		}
		if in.loadDoc, err = json.Marshal(server.LoadRequest{Name: liveName, Graph: doc.Bytes()}); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	in.ops = w.build(rng, w.primary, in.graphs[w.primary])
	refs := map[string]*core.Engine{}
	for name, g := range in.graphs {
		e := core.New(g)
		e.Parallelism = 1
		refs[name] = e
	}
	if err := references(in.ops, refs); err != nil {
		return nil, err
	}
	byGroup := map[string]int{}
	for i, o := range in.ops {
		o.id = i
		req := o.req
		req.Stream = o.stream
		var err error
		if o.body, err = json.Marshal(req); err != nil {
			return nil, err
		}
		gi, ok := byGroup[o.group]
		if !ok {
			gi = len(in.groups)
			byGroup[o.group] = gi
			in.groups = append(in.groups, nil)
		}
		in.groups[gi] = append(in.groups[gi], o)
	}
	return in, nil
}

// references computes every op's reference result, on all CPUs.
func references(ops []*op, refs map[string]*core.Engine) error {
	errs := make([]error, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(ops); i = int(next.Add(1) - 1) {
				o := ops[i]
				o.want, o.kind, errs[i] = reference(refs[o.graph], o.req)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// batch is one mutate request, kept both as graph mutations (to replay
// and to compute the expected final graph) and as its wire body.
type batch struct {
	muts []graph.Mutation
	body []byte
}

// writer generates one client's mutate batches. Batches are neutral for
// every read in the mix, so each read stays checkable against the setup
// reference while the overlay deepens:
//   - the first batch adds the client's own "zone" nodes, which no base
//     node reaches; later batches add follows edges from zone sources to
//     zone sinks (no follows path of length two passes through them) and
//     remove those added four batches earlier;
//   - follows edges between random base nodes are added and removed in
//     the same batch, so rows of read-visible nodes change in the overlay
//     while no committed version contains the edge;
//   - ages of base nodes are set; each client owns the nodes whose index
//     is its number modulo the client count, so batches of different
//     clients commute and the final graph does not depend on interleaving.
type writer struct {
	client, clients int
	nodes           int // base graph node count
	seq             int
	rng             *rand.Rand
}

const zoneSize = 4

func (w *writer) next() (batch, error) {
	var muts []graph.Mutation
	c, k := w.client, w.seq
	w.seq++
	person := func(i int) string { return fmt.Sprintf("p%d", i) }
	if k == 0 {
		for i := 0; i < zoneSize; i++ {
			for _, side := range []string{"zs", "zt"} {
				muts = append(muts, graph.Mutation{Op: graph.MutAddNode,
					ID: fmt.Sprintf("%s-%d-%d", side, c, i), Label: "Person"})
			}
		}
	} else {
		for j := 0; j < 3; j++ {
			muts = append(muts, graph.Mutation{Op: graph.MutAddEdge, ID: fmt.Sprintf("w-%d-%d-%d", c, k, j), Label: "follows",
				Src: fmt.Sprintf("zs-%d-%d", c, w.rng.Intn(zoneSize)), Tgt: fmt.Sprintf("zt-%d-%d", c, w.rng.Intn(zoneSize))})
			if k > 4 {
				muts = append(muts, graph.Mutation{Op: graph.MutRemoveEdge, ID: fmt.Sprintf("w-%d-%d-%d", c, k-4, j)})
			}
		}
		for j := 0; j < 4; j++ {
			id := fmt.Sprintf("x-%d-%d-%d", c, k, j)
			muts = append(muts,
				graph.Mutation{Op: graph.MutAddEdge, ID: id, Label: "follows",
					Src: person(w.rng.Intn(w.nodes)), Tgt: person(w.rng.Intn(w.nodes))},
				graph.Mutation{Op: graph.MutRemoveEdge, ID: id})
		}
		for j := 0; j < 10; j++ {
			i := w.rng.Intn(w.nodes/w.clients)*w.clients + c
			muts = append(muts, graph.Mutation{Op: graph.MutSetNodeProp, ID: person(i),
				Prop: "age", Value: graph.Int(int64(18 + w.rng.Intn(60)))})
		}
	}
	wire := server.MutateRequest{Ops: make([]server.MutationJSON, len(muts))}
	for i, m := range muts {
		wire.Ops[i] = server.MutationJSON{Op: m.Op.String(), ID: m.ID, Label: m.Label, Src: m.Src, Tgt: m.Tgt, Prop: m.Prop}
		if m.Op == graph.MutSetNodeProp {
			age, _ := m.Value.AsInt()
			wire.Ops[i].Value = &graph.ValueJSON{Kind: "int", Int: age}
		}
	}
	body, err := json.Marshal(wire)
	return batch{muts: muts, body: body}, err
}
