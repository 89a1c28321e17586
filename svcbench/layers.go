package main

// Tracing and the per-layer replay. Spans are recorded from the
// benchmark's side of each layer's public entry point and kept in memory
// until the run ends. The closed loop records a client span per operation
// and, through a handler wrapper, a server.handler child span; the replay
// then times a sample of the workload's reads at each layer's entry point
// on the same input, one call after another, so a layer's self time is its
// call minus the next-inner call.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphquery/internal/core"
	"graphquery/internal/crpq"
	"graphquery/internal/eval"
	"graphquery/internal/gql"
	"graphquery/internal/graph"
	"graphquery/internal/lrpq"
	"graphquery/internal/obs"
	"graphquery/internal/pg"
	"graphquery/internal/pmr"
	"graphquery/internal/rpq"
	"graphquery/internal/server"
)

// span is one timed call. Op is the pool index of the read it served
// (-1 for none); Parent links a call to the span that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory. A nil tracer records nothing.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
	// on gates the handler wrapper, so untraced loops of a traced run
	// record nothing on the server side.
	on atomic.Bool
	// stages are the engine's own stage timings of replayed core.query
	// calls, written out beside the spans.
	stages []engineStage
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records a span; id 0 assigns a fresh one. It returns the span's ID.
func (t *tracer) add(id, parent int64, op int, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// wrap records a server.handler span, child of the client span named in
// the request, around every traced request h serves.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if parent == 0 || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(0, parent, -1, "server.handler", start, time.Now())
	})
}

// selfNS returns p's duration minus the part of its interval that its
// children cover; overlapping children count once, and the parts of
// children outside p do not count.
func selfNS(p span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, p.Start), min(c.End, p.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	end = p.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return p.dur() - covered
}

// wireMS is the mean, over client spans, of the round trip not covered by
// the server.handler span: transport, HTTP framing and client decoding.
func wireMS(spans []span) float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Name == "server.handler" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var xs []float64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "client.") && len(children[s.ID]) > 0 {
			xs = append(xs, float64(selfNS(s, children[s.ID]))/1e6)
		}
	}
	return mean(xs)
}

// innerLayer names, per result kind, the evaluator call the engine itself
// makes for a query: core's self time is core.query minus that call.
var innerLayer = map[string]string{
	"pairs": "eval.pairs", "paths": "inner.paths", "rows": "crpq.eval", "matches": "gql.match",
}

// replayStats are the counts the replay gathers besides spans.
type replayStats struct {
	atomPairs, outRows int64 // crpq: pairs its atoms match, result rows
	coreAllocs         uint64
	coreCalls          int
	stages             []engineStage
}

// engineStage is one Response.Spans stage of a replayed core.query call,
// kept beside the benchmark's spans as a cross-check.
type engineStage struct {
	Op     int      `json:"op"`
	Parent int64    `json:"parent"`
	Span   obs.Span `json:"span"`
}

// replayer times one op at every layer it reaches.
type replayer struct {
	tr      *tracer
	handler http.Handler
	srv     *server.Server
	reps    int
	st      replayStats
}

// layerCall is one layer's entry point bound to an op's input.
type layerCall struct {
	name string
	f    func() error
}

// countSink counts streamed rows.
type countSink struct{ rows int }

func (s *countSink) Begin(string, []string) error { return nil }
func (s *countSink) Row(any) error                { s.rows++; return nil }

// replay times op o at each layer's entry point, reps rounds of one call
// per layer so that garbage collection and cache state fall on every layer
// alike, and checks each layer's result.
func (r *replayer) replay(o *op) error {
	ctx := context.Background()
	eng := r.srv.Engine(o.graph)
	g := eng.Graph()
	req := o.req
	req.Stream = false
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	creq, err := coreRequest(o.req)
	if err != nil {
		return err
	}
	want := func(layer string, n int) error {
		if n != o.want.Count {
			return fmt.Errorf("%s: %d rows, reference %d", layer, n, o.want.Count)
		}
		return nil
	}
	// The replies of the last round are checked after the timing.
	var rec *httptest.ResponseRecorder
	var resp *core.Response
	calls := []layerCall{
		{"server.handler", func() error {
			rec = httptest.NewRecorder()
			r.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
			return nil
		}},
		{"core.query", func() (err error) {
			resp, err = eng.QueryCtx(ctx, creq)
			return err
		}},
		{"core.stream", func() error {
			var sink countSink
			_, err := eng.QueryStream(ctx, creq, &sink)
			if err == nil {
				err = want("stream", sink.rows)
			}
			return err
		}},
	}
	switch o.kind {
	case "pairs", "paths":
		more, err := rpqCalls(o, g, creq, eng.MaxLen, want)
		if err != nil {
			return err
		}
		calls = append(calls, more...)
	case "rows":
		q, err := crpq.Parse(o.req.Query)
		if err != nil {
			return err
		}
		calls = append(calls, layerCall{"crpq.eval", func() error {
			res, err := crpq.EvalCtx(ctx, g, q, crpq.Options{AtomMaxLen: eng.MaxLen})
			if err == nil {
				err = want("crpq", len(res.Rows))
			}
			return err
		}})
		pairs, err := atomPairs(g, q)
		if err != nil {
			return err
		}
		r.st.atomPairs += pairs
		r.st.outRows += int64(o.want.Count)
	case "matches":
		p, err := gql.ParsePattern(o.req.Query)
		if err != nil {
			return err
		}
		calls = append(calls, layerCall{"gql.match", func() error {
			ms, err := gql.EvalPatternCtx(ctx, g, p, gql.Options{MaxLen: eng.MaxLen}, pg.Budget{})
			if err == nil {
				err = want("gql", len(ms))
			}
			return err
		}})
	}

	root := r.tr.newID()
	t0 := time.Now()
	for rep := 0; rep < r.reps; rep++ {
		for _, c := range calls {
			s := time.Now()
			err := c.f()
			e := time.Now()
			if err != nil {
				return fmt.Errorf("replay %s of op %d (%s): %w", c.name, o.id, o.group, err)
			}
			r.tr.add(0, root, o.id, c.name, s, e)
		}
	}
	r.tr.add(root, 0, o.id, "replay."+o.kind, t0, time.Now())
	if rec.Code != http.StatusOK {
		return fmt.Errorf("replay server.handler of op %d: status %d: %s", o.id, rec.Code, rec.Body.String())
	}
	if got, err := scanBuffered(rec.Body.Bytes(), o.kind); err != nil || !got.sameRows(o.want) {
		return fmt.Errorf("replay server.handler of op %d: %d rows (%v), reference %d", o.id, got.Count, err, o.want.Count)
	}
	if got, err := responseFingerprint(resp); err != nil || !got.sameRows(o.want) {
		return fmt.Errorf("replay core.query of op %d: %d rows (%v), reference %d", o.id, got.Count, err, o.want.Count)
	}
	for _, sp := range resp.Spans {
		r.st.stages = append(r.st.stages, engineStage{Op: o.id, Parent: root, Span: sp})
	}
	// Allocation per core.query call, from one more call outside the timing.
	a0 := readCounter(allocBytes)
	if _, err := eng.QueryCtx(ctx, creq); err != nil {
		return err
	}
	r.st.coreAllocs += readCounter(allocBytes) - a0
	r.st.coreCalls++
	return nil
}

// rpqCalls are the RPQ layers under the engine: parse, Glushkov compile,
// and the evaluator — the pair sweep at the default fan-out and at
// Parallelism 1 for pairs, eval.Paths plus the engine's own anchored
// evaluator (ℓ-RPQ search, or PMR construction and enumeration for lang
// pmr) for paths.
func rpqCalls(o *op, g *graph.Graph, creq core.Request, maxLen int, want func(string, int) error) ([]layerCall, error) {
	ctx := context.Background()
	expr, err := rpq.Parse(o.req.Query)
	if err != nil {
		return nil, err
	}
	calls := []layerCall{
		{"rpq.parse", func() error { _, err := rpq.Parse(o.req.Query); return err }},
		{"rpq.compile", func() error { rpq.Compile(expr); return nil }},
	}
	if o.kind == "pairs" {
		product := eval.NewProduct(g, rpq.Compile(expr))
		sweep := func(par int) func() error {
			return func() error {
				prs, err := eval.PairsProductCtx(ctx, product, eval.Options{Parallelism: par})
				if err == nil {
					err = want("pairs", len(prs))
				}
				return err
			}
		}
		return append(calls, layerCall{"eval.pairs", sweep(0)}, layerCall{"eval.pairs.p1", sweep(1)}), nil
	}
	u, _ := g.NodeIndex(creq.From)
	v, _ := g.NodeIndex(creq.To)
	calls = append(calls, layerCall{"eval.paths", func() error {
		_, err := eval.Paths(g, expr, u, v, creq.Mode, eval.Options{MaxLen: maxLen, Limit: creq.Limit})
		return err
	}})
	if o.req.Lang == "pmr" {
		return append(calls, layerCall{"inner.paths", func() error {
			m := pg.NewMeter(ctx, pg.Budget{})
			rep, err := pmr.FromProductMeter(g, expr, u, v, m)
			if err != nil {
				return err
			}
			paths, err := rep.EnumerateMeter(creq.Limit, m)
			if err == nil {
				err = want("pmr", len(paths))
			}
			return err
		}}), nil
	}
	le, err := lrpq.Parse(o.req.Query)
	if err != nil {
		return nil, err
	}
	return append(calls, layerCall{"inner.paths", func() error {
		res, err := lrpq.EvalBetween(g, le, u, v, creq.Mode, lrpq.Options{MaxLen: maxLen, Limit: creq.Limit})
		if err == nil {
			err = want("lrpq", len(res))
		}
		return err
	}}), nil
}

// atomPairs counts the pairs each atom of q matches on its own — what a
// pairwise plan materializes before joining — honouring constant
// endpoints. Atoms with list variables or data tests are not counted.
func atomPairs(g *graph.Graph, q *crpq.Query) (int64, error) {
	var n int64
	for _, a := range q.Atoms {
		if a.RPQ == nil {
			continue
		}
		prs, err := eval.PairsCtx(context.Background(), g, a.RPQ, eval.Options{Parallelism: 1})
		if err != nil {
			return 0, err
		}
		src, dst := -1, -1
		if a.Src.IsConst {
			src, _ = g.NodeIndex(a.Src.Const)
		}
		if a.Dst.IsConst {
			dst, _ = g.NodeIndex(a.Dst.Const)
		}
		for _, pr := range prs {
			if (src < 0 || pr[0] == src) && (dst < 0 || pr[1] == dst) {
				n++
			}
		}
	}
	return n, nil
}

// layerTimes reduces replay spans to one duration per (op, layer): the
// median over the repetitions, in nanoseconds.
func layerTimes(spans []span) map[string]map[int]float64 {
	roots := map[int64]bool{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "replay.") {
			roots[s.ID] = true
		}
	}
	runs := map[string]map[int][]float64{}
	for _, s := range spans {
		if !roots[s.Parent] {
			continue
		}
		if runs[s.Name] == nil {
			runs[s.Name] = map[int][]float64{}
		}
		runs[s.Name][s.Op] = append(runs[s.Name][s.Op], float64(s.dur()))
	}
	out := map[string]map[int]float64{}
	for name, byOp := range runs {
		out[name] = map[int]float64{}
		for o, xs := range byOp {
			out[name][o] = median(xs)
		}
	}
	return out
}

// layerMean is the mean over ops of one layer's time, in ns; 0 when no
// replayed op reaches the layer.
func layerMean(t map[string]map[int]float64, name string) float64 {
	var xs []float64
	for _, v := range t[name] {
		xs = append(xs, v)
	}
	return mean(xs)
}

// sumLayer is the total over ops of one layer's time, in ns.
func sumLayer(t map[string]map[int]float64, name string) float64 {
	s := 0.0
	for _, v := range t[name] {
		s += v
	}
	return s
}

// selfMean is the mean over ops of outer's time minus the time of the op's
// inner layer, in ns; inner names the layer per op.
func selfMean(t map[string]map[int]float64, outer string, inner func(op int) string) float64 {
	var xs []float64
	for o, v := range t[outer] {
		if in, ok := t[inner(o)][o]; ok {
			xs = append(xs, v-in)
		}
	}
	return mean(xs)
}
