package main

// The closed-loop client: each client sends its next request only after
// the previous reply has been read and checked. All clients share one
// HTTP transport capped at the CPU count in connections.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"graphquery/internal/graph"
	"graphquery/internal/server"
)

// spanHeader carries the client span ID to the traced handler wrapper.
const spanHeader = "X-Bench-Span"

// newTransport returns a transport that opens at most conns connections
// and keeps them all alive between requests.
func newTransport(conns int) *http.Transport {
	return &http.Transport{
		DialContext:         (&net.Dialer{}).DialContext,
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
}

// connCounter wraps the server's listener and tracks open connections.
type connCounter struct {
	net.Listener
	open, peak atomic.Int64
}

func (l *connCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	n := l.open.Add(1)
	for p := l.peak.Load(); n > p && !l.peak.CompareAndSwap(p, n); p = l.peak.Load() {
	}
	return &countedConn{Conn: c, l: l}, nil
}

type countedConn struct {
	net.Conn
	l    *connCounter
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.l.open.Add(-1) })
	return c.Conn.Close()
}

// sample is the outcome of one operation.
type sample struct {
	write    bool
	op       int // pool index of a read
	start    time.Duration
	latency  time.Duration
	firstRow time.Duration // NDJSON reads with rows: until the first row; else 0
	rows     int
	bytes    int
	err      error
}

// client issues requests for one closed loop.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer // nil: untraced
	buf  bytes.Buffer
	br   *bufio.Reader
}

func newClient(hc *http.Client, base string, tr *tracer) *client {
	return &client{hc: hc, base: base, tr: tr, br: bufio.NewReaderSize(nil, 64<<10)}
}

// post sends body and returns the reply; the caller closes its body.
func (c *client) post(path string, body []byte, ndjson bool, span int64) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if ndjson {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(span, 10))
	}
	return c.hc.Do(req)
}

// query sends one read and checks its rows against the reference.
func (c *client) query(o *op, epoch time.Time) sample {
	s := sample{op: o.id}
	span := c.tr.newID()
	t0 := time.Now()
	s.start = t0.Sub(epoch)
	resp, err := c.post("/v1/query", o.body, o.stream, span)
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	var got fingerprint
	if resp.StatusCode != http.StatusOK {
		c.buf.Reset()
		_, _ = c.buf.ReadFrom(resp.Body) // the error envelope, best effort
		s.latency = time.Since(t0)
		s.err = fmt.Errorf("op %d (%s): status %d: %s", o.id, o.group, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
		return s
	}
	if o.stream {
		r := ndjsonReader{kind: o.kind}
		n, rerr := readNDJSON(resp.Body, c.br, &r, func() { s.firstRow = time.Since(t0) })
		s.latency, s.bytes, got = time.Since(t0), n, r.f
		if rerr != nil {
			s.err = rerr
		}
	} else {
		c.buf.Reset()
		_, rerr := c.buf.ReadFrom(resp.Body)
		s.latency, s.bytes = time.Since(t0), c.buf.Len()
		if rerr != nil {
			s.err = rerr
		} else {
			got, s.err = scanBuffered(c.buf.Bytes(), o.kind)
		}
	}
	c.tr.add(span, 0, o.id, "client.read", t0, t0.Add(s.latency))
	s.rows = got.Count
	switch {
	case s.err != nil:
	case !got.sameRows(o.want):
		s.err = fmt.Errorf("op %d (%s): %d rows hash %x, reference %d rows hash %x",
			o.id, o.group, got.Count, got.Sum, o.want.Count, o.want.Sum)
	case o.stream && got.Seq != o.want.Seq:
		s.err = fmt.Errorf("op %d (%s): streamed rows differ in order from the buffered rows", o.id, o.group)
	}
	return s
}

// mutate sends one batch; the sample's error is nil only when the server
// acknowledged every op of it.
func (c *client) mutate(graphName string, b batch, epoch time.Time) sample {
	s := sample{write: true, op: -1}
	span := c.tr.newID()
	t0 := time.Now()
	s.start = t0.Sub(epoch)
	resp, err := c.post("/v1/graphs/"+graphName+"/mutate", b.body, false, span)
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	s.latency, s.bytes = time.Since(t0), c.buf.Len()
	c.tr.add(span, 0, -1, "client.write", t0, t0.Add(s.latency))
	var v server.GraphVersion
	switch {
	case err != nil:
		s.err = err
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("mutate status %d: %s", resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	case json.Unmarshal(c.buf.Bytes(), &v) != nil || v.Applied != len(b.muts):
		s.err = fmt.Errorf("mutate acknowledged %d of %d ops", v.Applied, len(b.muts))
	}
	return s
}

// get fetches url and returns the body of a 200 reply.
func get(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// loopState is what persists across a run's loops: each client's write
// generator and the batches the server acknowledged, per client in order.
type loopState struct {
	writers []*writer
	acked   [][]batch
}

// loopResult is one closed-loop window.
type loopResult struct {
	samples []sample
	elapsed time.Duration // window start to the last completion
}

// runLoop runs every client in a closed loop of rounds until a round ends
// after dur has passed, and returns once all of them have finished. A round
// sends one op of every group, groups in a seeded order; each group's ops
// are taken in a seeded permutation, renewed when used up. So every group
// has the same weight and every run the same mix.
func runLoop(w *workload, in *inputs, hc *http.Client, base string, st *loopState, clients int,
	seed int64, dur time.Duration, tr *tracer) loopResult {
	epoch := time.Now()
	deadline := epoch.Add(dur)
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(hc, base, tr)
			rng := rand.New(rand.NewSource(seed + int64(c)))
			order := make([][]int, len(in.groups))
			next := func(g int) *op {
				if len(order[g]) == 0 {
					order[g] = rng.Perm(len(in.groups[g]))
				}
				o := in.groups[g][order[g][0]]
				order[g] = order[g][1:]
				return o
			}
			for reads := 0; ; {
				for _, g := range rng.Perm(len(in.groups)) {
					per[c] = append(per[c], cl.query(next(g), epoch))
					if reads++; w.writeEvery > 0 && reads%w.writeEvery == 0 {
						per[c] = append(per[c], cl.write(st, c, epoch))
					}
				}
				if !time.Now().Before(deadline) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	var res loopResult
	for _, ss := range per {
		for _, s := range ss {
			res.samples = append(res.samples, s)
			if end := s.start + s.latency; end > res.elapsed {
				res.elapsed = end
			}
		}
	}
	return res
}

// write sends client i's next batch and records it if acknowledged.
func (c *client) write(st *loopState, i int, epoch time.Time) sample {
	b, err := st.writers[i].next()
	if err != nil {
		return sample{write: true, op: -1, err: err}
	}
	s := c.mutate(liveName, b, epoch)
	if s.err == nil {
		st.acked[i] = append(st.acked[i], b)
	}
	return s
}

// warm sends the first op of every group once, so lazy set-up such as
// plan compilation is done before measuring.
func warm(in *inputs, hc *http.Client, base string) []sample {
	cl := newClient(hc, base, nil)
	var out []sample
	for _, g := range in.groups {
		out = append(out, cl.query(g[0], time.Now()))
	}
	return out
}

// newLoopState prepares per-client write generators.
func newLoopState(w *workload, in *inputs, clients int, seed int64) *loopState {
	st := &loopState{acked: make([][]batch, clients)}
	if w.mutable == "" {
		return st
	}
	for c := 0; c < clients; c++ {
		st.writers = append(st.writers, &writer{client: c, clients: clients,
			nodes: in.graphs[liveName].NumNodes(), rng: rand.New(rand.NewSource(seed*7919 + int64(c)))})
	}
	return st
}

// ackedMutations flattens the acknowledged batches in client order.
func (st *loopState) ackedMutations() [][]graph.Mutation {
	var out [][]graph.Mutation
	for _, bs := range st.acked {
		for _, b := range bs {
			out = append(out, b.muts)
		}
	}
	return out
}

// memSampler records the peak of heap object bytes — live and not yet
// collected — while it runs.
type memSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startMemSampler(every time.Duration) *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		s := []metrics.Sample{{Name: heapObjects}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			m.peak = max(m.peak, s[0].Value.Uint64())
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// Stop ends sampling and returns the peak in bytes.
func (m *memSampler) Stop() uint64 {
	close(m.stop)
	<-m.done
	return m.peak
}

// readCounter reads one cumulative runtime/metrics counter.
func readCounter(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
