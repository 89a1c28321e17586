// Command svcbench is the query service benchmark: it serves generated
// graphs through the real server.New handler on a loopback TCP port, drives
// it with closed-loop clients from the same process, checks every reply
// against an in-process reference engine, and prints the end-to-end
// metrics — or, with -trace 1, the per-layer metrics of a traced run.
//
//	go run . -workload interactive -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
// A fuller report, and the spans of a traced run, go to .bench_out/ under
// the working directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"graphquery/internal/core"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/pg"
	"graphquery/internal/server"
	"graphquery/internal/store"
)

const (
	outDir = ".bench_out"
	// setupReps is how many times a run sets the server up; setup_s is the
	// median.
	setupReps = 5
	// heapEvery is the peak-heap sampling period.
	heapEvery  = 5 * time.Millisecond
	allocBytes = "/gc/heap/allocs:bytes"
	gcCycles   = "/gc/cycles/total:gc-cycles"
	mib        = 1 << 20
)

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed for the generated requests")
	seconds := flag.Int("seconds", 10, "measurement window in seconds")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "svcbench: need -workload (%s), -seconds ≥ 1 and -trace 0|1\n", strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	r, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the fuller record written to the -out directory and to
// standard error.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	NumCPU    int               `json:"num_cpu"`
	Clients   int               `json:"clients"`
	PeakConns int64             `json:"peak_conns"`
	Result    result            `json:"result"`
	Extra     map[string]metric `json:"extra"`
	Samples   map[string]int    `json:"samples"`
	Untraced  map[string]metric `json:"untraced,omitempty"`
	Errors    []string          `json:"errors,omitempty"`
	SpansFile string            `json:"spans_file,omitempty"`
}

// env is one running server with its listener and client transport.
type env struct {
	srv    *server.Server
	hs     *http.Server
	ln     *connCounter
	hc     *http.Client
	base   string
	served chan error
}

// setUp starts a server holding the workload's graphs, as a deployment
// would: catalog graphs built and registered, the mutable copy loaded over
// POST /v1/graphs. It returns once the server answers.
func setUp(w *workload, in *inputs, conns int, tr *tracer) (*env, time.Duration, error) {
	t0 := time.Now()
	srv := server.New(server.Config{Mutable: w.mutable != ""})
	for _, name := range w.catalog {
		g, err := gen.Named(name)
		if err != nil {
			return nil, 0, err
		}
		srv.Register(name, g)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	h := srv.Handler()
	if tr != nil {
		h = tr.wrap(h)
	}
	e := &env{srv: srv, hs: &http.Server{Handler: h}, ln: &connCounter{Listener: l},
		hc: &http.Client{Transport: newTransport(conns)}, base: "http://" + l.Addr().String(),
		served: make(chan error, 1)}
	go func() { e.served <- e.hs.Serve(e.ln) }()
	if in.loadDoc != nil {
		resp, err := newClient(e.hc, e.base, nil).post("/v1/graphs", in.loadDoc, false, 0)
		if err != nil {
			e.close()
			return nil, 0, err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			e.close()
			return nil, 0, fmt.Errorf("loading %s: status %d", liveName, resp.StatusCode)
		}
	}
	if _, err := get(context.Background(), e.hc, e.base+"/v1/healthz"); err != nil {
		e.close()
		return nil, 0, err
	}
	return e, time.Since(t0), nil
}

// close stops the server and waits for it and its compactions to end.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // a stuck connection is closed by the deadline
	if err := <-e.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "svcbench: serve:", err)
	}
	e.hc.CloseIdleConnections()
	e.srv.Close()
}

// window is one measured closed loop with the runtime counters around it.
type window struct {
	loop             loopResult
	allocs, gc, peak uint64
	cache0, cache1   core.CacheStats
	counts0, counts1 pg.CountersSnapshot
	deltaMax         int
	deepest          *graph.Graph
	compactions      int64
}

// measure runs one closed-loop window, sampling the heap, and for a traced
// window the store's delta depth as well.
func measure(w *workload, in *inputs, e *env, st *loopState, clients int, seed int64, dur time.Duration, tr *tracer) window {
	var win window
	engines := func() (c core.CacheStats, k pg.CountersSnapshot) {
		for name := range in.graphs {
			if eng := e.srv.Engine(name); eng != nil {
				cs, ks := eng.CacheStats(), eng.RuntimeStats()
				c.Hits += cs.Hits
				c.Misses += cs.Misses
				k.StatesExpanded += ks.StatesExpanded
				k.EdgesScanned += ks.EdgesScanned
			}
		}
		return
	}
	runtime.GC()
	win.cache0, win.counts0 = engines()
	comp0 := e.srv.Store().Stats().Compactions
	stop := make(chan struct{})
	depthDone := make(chan struct{})
	go func() {
		defer close(depthDone)
		if tr == nil || w.mutable == "" {
			return
		}
		t := time.NewTicker(heapEvery)
		defer t.Stop()
		for {
			if h, ok := e.srv.Store().Get(liveName); ok {
				if g := h.Snapshot().G; g.DeltaOps() > win.deltaMax {
					win.deltaMax, win.deepest = g.DeltaOps(), g
				}
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	a0, gc0 := readCounter(allocBytes), readCounter(gcCycles)
	ms := startMemSampler(heapEvery)
	win.loop = runLoop(w, in, e.hc, e.base, st, clients, seed, dur, tr)
	win.peak = ms.Stop()
	win.allocs, win.gc = readCounter(allocBytes)-a0, readCounter(gcCycles)-gc0
	close(stop)
	<-depthDone
	win.cache1, win.counts1 = engines()
	win.compactions = e.srv.Store().Stats().Compactions - comp0
	return win
}

// endToEnd reduces a window to the end-to-end metrics (kept) and the
// workload-specific ones (extra).
func endToEnd(in *inputs, win window, setupS float64) (kept, extra map[string]metric, counts map[string]int) {
	var reads, writes, firstRows []float64
	byGroup := map[string][]float64{}
	rows, ops := 0, len(win.loop.samples)
	for _, s := range win.loop.samples {
		if s.err != nil {
			continue
		}
		ms := float64(s.latency.Nanoseconds()) / 1e6
		if s.write {
			writes = append(writes, ms)
			continue
		}
		reads = append(reads, ms)
		o := in.ops[s.op]
		key := o.group
		if o.stream {
			key += " ndjson"
		}
		byGroup[key] = append(byGroup[key], ms)
		rows += s.rows
		if s.firstRow > 0 {
			firstRows = append(firstRows, float64(s.firstRow.Nanoseconds())/1e6)
		}
	}
	sec := win.loop.elapsed.Seconds()
	kept = map[string]metric{
		"setup_s":         {setupS, "s"},
		"ops_per_s":       {ratio(float64(ops), sec), "1/s"},
		"read_p50_ms":     {percentile(reads, 50), "ms"},
		"read_p90_ms":     {percentile(reads, 90), "ms"},
		"rows_per_s":      {ratio(float64(rows), sec), "1/s"},
		"alloc_mb_per_op": {ratio(float64(win.allocs)/mib, float64(ops)), "MiB"},
		"peak_heap_mb":    {float64(win.peak) / mib, "MiB"},
	}
	extra = map[string]metric{}
	for g, xs := range byGroup {
		extra["p50_ms "+g] = metric{percentile(xs, 50), "ms"}
	}
	if tailPercentile(len(reads)) >= 99 {
		extra["read_p99_ms"] = metric{percentile(reads, 99), "ms"}
	}
	if len(firstRows) > 0 {
		extra["first_row_p50_ms"] = metric{percentile(firstRows, 50), "ms"}
	}
	if len(writes) > 0 {
		extra["write_p50_ms"] = metric{percentile(writes, 50), "ms"}
		if tailPercentile(len(writes)) >= 99 {
			extra["write_p99_ms"] = metric{percentile(writes, 99), "ms"}
		}
	}
	if p := tailPercentile(len(reads)); p > 0 {
		extra[fmt.Sprintf("read_tail_p%g_ms", p)] = metric{percentile(reads, p), "ms"}
	}
	counts = map[string]int{"ops": ops, "reads_ok": len(reads), "writes_ok": len(writes), "ndjson_reads_with_rows": len(firstRows)}
	return kept, extra, counts
}

// run performs one benchmark run.
func run(w *workload, seed int64, dur time.Duration, traced bool) (result, error) {
	nproc := runtime.NumCPU()
	clients := min(w.clients, nproc)
	in, err := prepare(w, seed)
	if err != nil {
		return result{}, err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var setups []float64
	var e *env
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.close()
		}
		runtime.GC() // the previous set-up's garbage is not this one's cost
		var d time.Duration
		if e, d, err = setUp(w, in, nproc, tr); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	defer e.close()
	setupS := median(setups)

	rep := report{Workload: w.name, Seed: seed, Trace: traced, NumCPU: nproc, Clients: clients}
	st := newLoopState(w, in, clients, seed)
	var all []sample
	all = append(all, warm(in, e.hc, e.base)...)

	var res result
	var win window
	var pl map[string]metric
	if !traced {
		win = measure(w, in, e, st, clients, seed*31+2, dur, nil)
		all = append(all, win.loop.samples...)
		res.Metrics, rep.Extra, rep.Samples = endToEnd(in, win, setupS)
	} else {
		untraced := measure(w, in, e, st, clients, seed*31+2, dur/2, nil)
		tr.on.Store(true)
		win = measure(w, in, e, st, clients, seed*31+3, dur-dur/2, tr)
		tr.on.Store(false)
		all = append(all, untraced.loop.samples...)
		all = append(all, win.loop.samples...)
		rep.Untraced, _, _ = endToEnd(in, untraced, setupS)
		var kept map[string]metric
		kept, rep.Extra, rep.Samples = endToEnd(in, win, setupS)
		for k, v := range kept {
			rep.Extra["traced_"+k] = v
		}
		if pl, err = perLayer(w, in, e, st, win, tr, rep.Untraced, kept); err != nil {
			rep.Errors = append(rep.Errors, err.Error())
		}
		res.Metrics = pl
		rep.SpansFile = filepath.Join(outDir, fmt.Sprintf("%s-seed%d-spans.json", w.name, seed))
	}

	res.Attempted = len(all)
	for _, s := range all {
		if s.err != nil {
			res.Failed++
			if len(rep.Errors) < 10 {
				rep.Errors = append(rep.Errors, s.err.Error())
			}
		}
	}
	if w.mutable != "" {
		res.Attempted++
		doc, err := get(context.Background(), e.hc, e.base+"/v1/graphs/"+liveName+"/export")
		if err == nil {
			err = checkExport(doc, in.graphs[liveName], st.ackedMutations())
		}
		if err != nil {
			res.Failed++
			rep.Errors = append(rep.Errors, err.Error())
		}
		rep.Extra["acked_batches"] = metric{float64(len(st.ackedMutations())), "count"}
	}
	rep.PeakConns = e.ln.peak.Load()
	if rep.PeakConns > int64(nproc) {
		rep.Errors = append(rep.Errors, fmt.Sprintf("client opened %d connections, limit %d", rep.PeakConns, nproc))
	}
	rep.Extra["error_ratio"] = metric{ratio(float64(res.Failed), float64(res.Attempted)), "ratio"}
	res.Correct = len(rep.Errors) == 0
	rep.Result = res
	if err := writeOutputs(outDir, rep, tr); err != nil {
		return result{}, err
	}
	return res, nil
}

// writeOutputs writes the report (also to standard error) and the spans.
func writeOutputs(dir string, rep report, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, string(b))
	name := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v.json", rep.Workload, rep.Seed, rep.Trace))
	if err := os.WriteFile(name, b, 0o644); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	f, err := os.Create(rep.SpansFile)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans        []span        `json:"spans"`
		EngineStages []engineStage `json:"engine_stages"`
	}{tr.snapshot(), tr.stages}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayer replays a sample of the workload's reads at each layer and
// combines the replay with the traced window into the per-layer metrics.
func perLayer(w *workload, in *inputs, e *env, st *loopState, win window, tr *tracer,
	untraced, traced map[string]metric) (map[string]metric, error) {
	m := map[string]metric{}
	ops := float64(len(win.loop.samples))
	rows, bytes := 0, 0
	for _, s := range win.loop.samples {
		if !s.write {
			rows += s.rows
			bytes += s.bytes
		}
	}
	var stz server.ServerStats
	if b, err := get(context.Background(), e.hc, e.base+"/v1/statz"); err != nil {
		return m, err
	} else if err := json.Unmarshal(b, &stz); err != nil {
		return m, err
	}
	hits, misses := win.cache1.Hits-win.cache0.Hits, win.cache1.Misses-win.cache0.Misses
	states := float64(win.counts1.StatesExpanded - win.counts0.StatesExpanded)
	edges := float64(win.counts1.EdgesScanned - win.counts0.EdgesScanned)
	m["server.wire_ms"] = metric{wireMS(tr.snapshot()), "ms"}
	m["server.bytes_per_row"] = metric{ratio(float64(bytes), float64(rows)), "B"}
	m["server.rejected_ratio"] = metric{ratio(float64(stz.Rejected), float64(stz.Accepted+stz.Rejected)), "ratio"}
	m["core.plan_cache_hit_ratio"] = metric{ratio(float64(hits), float64(hits+misses)), "ratio"}
	m["pg.states_per_op"] = metric{ratio(states, ops), "count"}
	m["pg.edges_per_op"] = metric{ratio(edges, ops), "count"}
	m["pg.rows_per_state"] = metric{ratio(float64(rows), states), "ratio"}
	m["runtime.gc_cycles_per_op"] = metric{ratio(float64(win.gc), ops), "count"}
	m["store.compactions"] = metric{float64(win.compactions), "count"}
	m["store.delta_ops_max"] = metric{float64(win.deltaMax), "count"}
	m["trace.overhead_pct"] = metric{100 * ratio(untraced["ops_per_s"].Value-traced["ops_per_s"].Value, untraced["ops_per_s"].Value), "%"}

	// Replay: a few ops of every group, each at every layer it reaches.
	rp := &replayer{tr: tr, handler: e.srv.Handler(), srv: e.srv, reps: w.replayReps}
	var sample []*op
	for _, g := range in.groups {
		sample = append(sample, g[:min(w.replayPerGroup, len(g))]...)
	}
	for _, o := range sample {
		if err := rp.replay(o); err != nil {
			return m, err
		}
	}
	tr.stages = rp.st.stages
	lt := layerTimes(tr.snapshot())
	ms := func(name string) float64 { return layerMean(lt, name) / 1e6 }
	m["server.handler_ms"] = metric{ms("server.handler"), "ms"}
	m["server.self_ms"] = metric{selfMean(lt, "server.handler", func(int) string { return "core.query" }) / 1e6, "ms"}
	m["core.query_ms"] = metric{ms("core.query"), "ms"}
	m["core.stream_ms"] = metric{ms("core.stream"), "ms"}
	m["core.self_ms"] = metric{selfMean(lt, "core.query", func(o int) string { return innerLayer[in.ops[o].kind] }) / 1e6, "ms"}
	m["core.alloc_kb_per_op"] = metric{ratio(float64(rp.st.coreAllocs)/1024, float64(rp.st.coreCalls)), "KiB"}
	m["rpq.parse_us"] = metric{layerMean(lt, "rpq.parse") / 1e3, "us"}
	m["rpq.compile_us"] = metric{layerMean(lt, "rpq.compile") / 1e3, "us"}
	m["eval.pairs_ms"] = metric{ms("eval.pairs"), "ms"}
	m["eval.paths_ms"] = metric{ms("eval.paths"), "ms"}
	m["eval.fanout_speedup"] = metric{ratio(sumLayer(lt, "eval.pairs.p1"), sumLayer(lt, "eval.pairs")), "ratio"}
	m["crpq.eval_ms"] = metric{ms("crpq.eval"), "ms"}
	m["crpq.examined_per_row"] = metric{ratio(float64(rp.st.atomPairs), float64(rp.st.outRows)), "ratio"}
	m["gql.match_ms"] = metric{ms("gql.match"), "ms"}

	// Store and graph layers.
	primary := in.graphs[w.primary]
	slowdown := 1.0 // a catalog graph has no overlay: it is its own materialization
	if w.mutable != "" && win.deepest != nil {
		primary = win.deepest
		var err error
		if slowdown, err = overlaySlowdown(win.deepest, sample); err != nil {
			return m, err
		}
	}
	m["store.overlay_read_slowdown"] = metric{slowdown, "ratio"}
	matMS, err := timeMedian(3, func() error { _, err := primary.Materialize(); return err })
	if err != nil {
		return m, err
	}
	m["graph.materialize_ms"] = metric{matMS, "ms"}
	loadMS, err := timeMedian(3, func() error { return loadGraphs(w, in) })
	if err != nil {
		return m, err
	}
	m["graph.load_ms"] = metric{loadMS, "ms"}
	mutateUS := 0.0
	if w.mutable != "" {
		if mutateUS, err = replayMutations(in.graphs[liveName], st); err != nil {
			return m, err
		}
	}
	m["store.mutate_us"] = metric{mutateUS, "us"}
	return m, nil
}

// timeMedian runs f reps times and returns the median duration in ms.
func timeMedian(reps int, f func() error) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(xs), nil
}

// loadGraphs builds the workload's graphs the way setup does: catalog
// graphs by generator, the mutable copy by parsing its load document.
func loadGraphs(w *workload, in *inputs) error {
	for _, name := range w.catalog {
		if _, err := gen.Named(name); err != nil {
			return err
		}
	}
	if w.mutable == "" {
		return nil
	}
	var lr server.LoadRequest
	if err := json.Unmarshal(in.loadDoc, &lr); err != nil {
		return err
	}
	_, err := graph.ReadJSON(strings.NewReader(string(lr.Graph)))
	return err
}

// overlaySlowdown times the sampled reads on the deepest overlay snapshot
// seen and on its materialization, checking both against the reference,
// and returns the ratio of total times.
func overlaySlowdown(deep *graph.Graph, sample []*op) (float64, error) {
	mat, err := deep.Materialize()
	if err != nil {
		return 0, err
	}
	engines := []*core.Engine{core.New(deep), core.New(mat)}
	var total [2]float64
	for _, o := range sample {
		req, err := coreRequest(o.req)
		if err != nil {
			return 0, err
		}
		for i, eng := range engines {
			var xs []float64
			for r := 0; r < 4; r++ { // the first run compiles the plan
				t0 := time.Now()
				resp, err := eng.QueryCtx(context.Background(), req)
				d := time.Since(t0)
				if err != nil {
					return 0, err
				}
				if r == 0 {
					if got, err := responseFingerprint(resp); err != nil || !got.sameRows(o.want) {
						return 0, fmt.Errorf("op %d on the %s snapshot: %d rows (%v), reference %d",
							o.id, []string{"overlay", "materialized"}[i], got.Count, err, o.want.Count)
					}
					continue
				}
				xs = append(xs, float64(d.Nanoseconds()))
			}
			total[i] += median(xs)
		}
	}
	return ratio(total[0], total[1]), nil
}

// maxMutateReplay bounds the batches replayed on a private store.
const maxMutateReplay = 1024

// replayMutations applies the acknowledged batches to a private store
// loaded with the base graph, timing Handle.Mutate, and returns the mean
// in µs. Clients' batches commute, so client order is a valid commit order.
func replayMutations(base *graph.Graph, st *loopState) (float64, error) {
	s := store.New(store.Config{})
	defer s.Close()
	h, err := s.Load("replay", base, false)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	n := 0
	for _, b := range st.ackedMutations() {
		if n == maxMutateReplay {
			break
		}
		t0 := time.Now()
		if _, err := h.Mutate(b, 0); err != nil {
			return 0, fmt.Errorf("replaying batch %d: %w", n, err)
		}
		total += time.Since(t0)
		n++
	}
	return ratio(float64(total.Nanoseconds())/1e3, float64(n)), nil
}
