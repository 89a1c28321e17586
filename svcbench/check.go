package main

// Output checking: every reply is reduced to a fingerprint — row count,
// order-independent row hash, ordered row hash — over the raw JSON bytes
// of its result elements, and compared with the fingerprint of the same
// request evaluated by an in-process core.Engine at Parallelism 1. The
// server encodes rows byte-identically in buffered arrays and NDJSON lines,
// so one fingerprint serves both deliveries.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"graphquery/internal/core"
	"graphquery/internal/eval"
	"graphquery/internal/graph"
	"graphquery/internal/server"
)

// fingerprint summarises one result set.
type fingerprint struct {
	Count int    `json:"count"`
	Sum   uint64 `json:"sum"` // sum of row hashes: independent of row order
	Seq   uint64 `json:"seq"` // row hashes chained in order
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashRow(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

func (f *fingerprint) add(row []byte) {
	x := hashRow(row)
	f.Count++
	f.Sum += x
	f.Seq = (f.Seq ^ x) * fnvPrime
}

// sameRows reports whether got holds the same rows as want, in any order.
func (f fingerprint) sameRows(want fingerprint) bool {
	return f.Count == want.Count && f.Sum == want.Sum
}

// resultField names the buffered reply's result array for each kind.
var resultField = map[string]string{
	"pairs": "pairs", "paths": "paths", "rows": "rows", "matches": "matches",
}

// coreRequest translates a wire request into the engine's request.
func coreRequest(q server.QueryRequest) (core.Request, error) {
	mode := eval.All
	if q.Mode != "" {
		var err error
		if mode, err = eval.ParseMode(q.Mode); err != nil {
			return core.Request{}, err
		}
	}
	return core.Request{
		Query: q.Query, Lang: q.Lang,
		From: graph.NodeID(q.From), To: graph.NodeID(q.To),
		Mode: mode, MaxLen: q.MaxLen, Limit: q.Limit,
	}, nil
}

// reference evaluates q on an engine outside the server and fingerprints
// the rows as the server renders them. It also returns the result kind.
func reference(e *core.Engine, q server.QueryRequest) (fingerprint, string, error) {
	req, err := coreRequest(q)
	if err != nil {
		return fingerprint{}, "", err
	}
	resp, err := e.QueryCtx(context.Background(), req)
	if err != nil {
		return fingerprint{}, "", fmt.Errorf("reference %q: %w", q.Query, err)
	}
	f, err := responseFingerprint(resp)
	return f, resp.Kind, err
}

// responseFingerprint renders an engine response's rows the way the
// server's buffered reply does and fingerprints their JSON encodings.
func responseFingerprint(resp *core.Response) (fingerprint, error) {
	var f fingerprint
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	var err error
	emit := func(v any) {
		buf.Reset()
		if e := enc.Encode(v); e != nil && err == nil {
			err = e
		}
		f.add(bytes.TrimSuffix(buf.Bytes(), []byte("\n")))
	}
	g := resp.G
	switch resp.Kind {
	case "pairs":
		for _, pr := range resp.Pairs {
			emit([2]string{string(pr[0]), string(pr[1])})
		}
	case "paths":
		for _, p := range resp.Paths {
			emit(p.Format(g))
		}
	case "rows":
		for _, row := range resp.Rows.Rows {
			cells := make([]string, len(row))
			for j, v := range row {
				cells[j] = v.Format(g)
			}
			emit(cells)
		}
	case "matches":
		for _, m := range resp.Matches {
			emit(m)
		}
	default:
		return f, fmt.Errorf("no fingerprint for result kind %q", resp.Kind)
	}
	return f, err
}

// scanBuffered fingerprints a buffered /v1/query reply of the given kind:
// every element of its result array, in order. The reply's count field
// must agree with the elements found.
func scanBuffered(body []byte, kind string) (fingerprint, error) {
	var f fingerprint
	field := resultField[kind]
	s := jsonScanner{b: body}
	count := -1
	err := s.object(func(key []byte) error {
		switch string(key) {
		case field:
			return s.array(func(elem []byte) { f.add(elem) })
		case "kind":
			v, err := s.str()
			if err == nil && string(v) != kind {
				err = fmt.Errorf("reply kind %q, want %q", v, kind)
			}
			return err
		case "count":
			start := s.i
			if err := s.skip(); err != nil {
				return err
			}
			n, err := strconv.Atoi(string(body[start:s.i]))
			count = n
			return err
		default:
			return s.skip()
		}
	})
	if err != nil {
		return f, fmt.Errorf("bad reply: %w", err)
	}
	if count != f.Count {
		return f, fmt.Errorf("reply count %d, but %d rows", count, f.Count)
	}
	return f, nil
}

// ndjsonReader fingerprints a streamed reply line by line: a header
// object, bare row values, and a trailer object that must report success
// and the number of rows sent.
type ndjsonReader struct {
	kind    string
	f       fingerprint
	header  bool
	trailer bool
}

var trailerPrefix = []byte(`{"trailer"`)

func (r *ndjsonReader) line(b []byte) error {
	b = bytes.TrimSuffix(b, []byte("\n"))
	switch {
	case r.trailer:
		return errors.New("data after the trailer")
	case !r.header:
		var h struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(b, &h); err != nil {
			return fmt.Errorf("bad header line: %w", err)
		}
		if h.Kind != r.kind {
			return fmt.Errorf("stream kind %q, want %q", h.Kind, r.kind)
		}
		r.header = true
	case bytes.HasPrefix(b, trailerPrefix):
		var t struct {
			Trailer struct {
				Status  string `json:"status"`
				Code    string `json:"code"`
				Message string `json:"message"`
				Count   int    `json:"count"`
			} `json:"trailer"`
		}
		if err := json.Unmarshal(b, &t); err != nil {
			return fmt.Errorf("bad trailer: %w", err)
		}
		if t.Trailer.Status != "ok" {
			return fmt.Errorf("stream ended %s: %s %s", t.Trailer.Status, t.Trailer.Code, t.Trailer.Message)
		}
		if t.Trailer.Count != r.f.Count {
			return fmt.Errorf("trailer count %d, but %d rows", t.Trailer.Count, r.f.Count)
		}
		r.trailer = true
	default:
		r.f.add(b)
	}
	return nil
}

// readNDJSON feeds every line of body to r; onFirstRow, if set, runs when
// the first row arrives.
// It returns the bytes read.
func readNDJSON(body io.Reader, br *bufio.Reader, r *ndjsonReader, onFirstRow func()) (int, error) {
	br.Reset(body)
	n := 0
	var long []byte
	for {
		chunk, err := br.ReadSlice('\n')
		n += len(chunk)
		if errors.Is(err, bufio.ErrBufferFull) {
			long = append(long, chunk...)
			continue
		}
		line := chunk
		if long != nil {
			line = append(long, chunk...)
			long = nil
		}
		if len(line) > 0 {
			rows := r.f.Count
			if lerr := r.line(line); lerr != nil {
				return n, lerr
			}
			if rows == 0 && r.f.Count == 1 && onFirstRow != nil {
				onFirstRow()
			}
		}
		if err == io.EOF {
			if !r.trailer {
				return n, errors.New("stream ended without a trailer")
			}
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// graphDigest fingerprints a graph's live nodes and edges with their
// labels, endpoints and properties, independent of element order.
func graphDigest(g *graph.Graph) fingerprint {
	var f fingerprint
	var sb strings.Builder
	props := func(p graph.Props) {
		keys := make([]string, 0, len(p))
		for k := range p {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "\x00%s=%s", k, p[k])
		}
	}
	for i := 0; i < g.NumNodes(); i++ {
		if !g.NodeAlive(i) {
			continue
		}
		n := g.Node(i)
		sb.Reset()
		fmt.Fprintf(&sb, "node\x00%s\x00%s", n.ID, n.Label)
		props(n.Props)
		f.add([]byte(sb.String()))
	}
	for i := 0; i < g.NumEdges(); i++ {
		if !g.EdgeAlive(i) {
			continue
		}
		e := g.Edge(i)
		sb.Reset()
		fmt.Fprintf(&sb, "edge\x00%s\x00%s\x00%s\x00%s", e.ID, e.Label, g.Node(e.Src).ID, g.Node(e.Tgt).ID)
		props(e.Props)
		f.add([]byte(sb.String()))
	}
	return f
}

// checkExport compares an exported graph document with the expected
// graph: the base graph with every acknowledged batch applied.
func checkExport(doc []byte, base *graph.Graph, acked [][]graph.Mutation) error {
	got, err := graph.ReadJSON(bytes.NewReader(doc))
	if err != nil {
		return fmt.Errorf("export: %w", err)
	}
	var all []graph.Mutation
	for _, b := range acked {
		all = append(all, b...)
	}
	want := base
	if len(all) > 0 {
		if want, err = base.Apply(all); err != nil {
			return fmt.Errorf("replaying acknowledged writes: %w", err)
		}
	}
	if g, w := graphDigest(got), graphDigest(want); !g.sameRows(w) {
		return fmt.Errorf("export holds %d elements (hash %x), base plus %d acknowledged ops gives %d (hash %x)",
			g.Count, g.Sum, len(all), w.Count, w.Sum)
	}
	return nil
}

// jsonScanner walks JSON text without building values, handing out the
// raw bytes of the elements it is asked for.
type jsonScanner struct {
	b []byte
	i int
}

func (s *jsonScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

func (s *jsonScanner) peek() byte {
	s.ws()
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

func (s *jsonScanner) expect(c byte) error {
	if s.peek() != c {
		return fmt.Errorf("offset %d: want %q", s.i, c)
	}
	s.i++
	return nil
}

// str consumes a string and returns its raw contents (escapes left as is).
func (s *jsonScanner) str() ([]byte, error) {
	if err := s.expect('"'); err != nil {
		return nil, err
	}
	start := s.i
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '\\':
			s.i += 2
		case '"':
			s.i++
			return s.b[start : s.i-1], nil
		default:
			s.i++
		}
	}
	return nil, errors.New("unterminated string")
}

// skip consumes one value of any type.
func (s *jsonScanner) skip() error {
	switch s.peek() {
	case '"':
		_, err := s.str()
		return err
	case '{':
		return s.object(func([]byte) error { return s.skip() })
	case '[':
		return s.array(nil)
	case 0:
		return errors.New("unexpected end of input")
	}
	start := s.i
	for s.i < len(s.b) && !isDelim(s.b[s.i]) {
		s.i++
	}
	if s.i == start {
		return fmt.Errorf("offset %d: unexpected %q", s.i, s.b[s.i])
	}
	return nil
}

// isDelim reports whether c ends a number or literal.
func isDelim(c byte) bool {
	switch c {
	case ',', ']', '}', ' ', '\t', '\n', '\r':
		return true
	}
	return false
}

// object consumes an object, calling field with the scanner positioned at
// each value; field must consume it.
func (s *jsonScanner) object(field func(key []byte) error) error {
	if err := s.expect('{'); err != nil {
		return err
	}
	if s.peek() == '}' {
		s.i++
		return nil
	}
	for {
		key, err := s.str()
		if err != nil {
			return err
		}
		if err := s.expect(':'); err != nil {
			return err
		}
		if err := field(key); err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.i++
		case '}':
			s.i++
			return nil
		default:
			return fmt.Errorf("offset %d: want ',' or '}'", s.i)
		}
	}
}

// array consumes an array, handing each element's raw bytes to elem.
func (s *jsonScanner) array(elem func([]byte)) error {
	if err := s.expect('['); err != nil {
		return err
	}
	if s.peek() == ']' {
		s.i++
		return nil
	}
	for {
		s.ws()
		start := s.i
		if err := s.skip(); err != nil {
			return err
		}
		if elem != nil {
			elem(s.b[start:s.i])
		}
		switch s.peek() {
		case ',':
			s.i++
		case ']':
			s.i++
			return nil
		default:
			return fmt.Errorf("offset %d: want ',' or ']'", s.i)
		}
	}
}
