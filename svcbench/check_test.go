package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"graphquery/internal/core"
	"graphquery/internal/gen"
	"graphquery/internal/graph"
	"graphquery/internal/server"
)

// bankReply returns the reference fingerprint of q on the bank graph and
// the server's reply to it, buffered or streamed.
func bankReply(t *testing.T, q server.QueryRequest) (fingerprint, string, []byte) {
	t.Helper()
	ref := core.New(gen.BankEdgeLabeled())
	ref.Parallelism = 1
	want, kind, err := reference(ref, q)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{})
	srv.Register("bank", gen.BankEdgeLabeled())
	body, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	return want, kind, rec.Body.Bytes()
}

// corrupt changes one node name inside the first result row.
func corrupt(t *testing.T, body []byte) []byte {
	t.Helper()
	i := bytes.Index(body, []byte(`["`))
	if i < 0 {
		t.Fatalf("no row in %s", body)
	}
	out := append([]byte(nil), body...)
	out[i+3] ^= 1 // second byte of the first node name
	return out
}

func TestCheckerRejectsCorruptedBufferedRow(t *testing.T) {
	want, kind, body := bankReply(t, server.QueryRequest{Graph: "bank", Query: "Transfer Transfer"})
	got, err := scanBuffered(body, kind)
	if err != nil || !got.sameRows(want) || got.Seq != want.Seq {
		t.Fatalf("intact reply rejected: %v, %+v vs %+v", err, got, want)
	}
	got, err = scanBuffered(corrupt(t, body), kind)
	if err == nil && got.sameRows(want) {
		t.Fatal("corrupted row accepted")
	}
}

func TestCheckerRejectsCorruptedStreamedRow(t *testing.T) {
	want, kind, body := bankReply(t, server.QueryRequest{Graph: "bank", Query: "Transfer Transfer", Stream: true})
	read := func(b []byte) (fingerprint, error) {
		r := ndjsonReader{kind: kind}
		_, err := readNDJSON(bytes.NewReader(b), bufio.NewReader(nil), &r, nil)
		return r.f, err
	}
	if got, err := read(body); err != nil || got != want {
		t.Fatalf("intact stream rejected: %v, %+v vs %+v", err, got, want)
	}
	if got, err := read(corrupt(t, body)); err == nil && got.sameRows(want) {
		t.Fatal("corrupted streamed row accepted")
	}
	lines := strings.SplitAfter(string(body), "\n")
	truncated := strings.Join(lines[:len(lines)-2], "")
	if _, err := read([]byte(truncated)); err == nil {
		t.Fatal("stream without its trailer accepted")
	}
}

func TestCheckerRejectsLostWrite(t *testing.T) {
	base := gen.Social(50, 1)
	w := &writer{client: 0, clients: 2, nodes: base.NumNodes(), rng: rand.New(rand.NewSource(1))}
	var batches [][]graph.Mutation
	for i := 0; i < 6; i++ {
		b, err := w.next()
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, b.muts)
	}
	export := func(bs [][]graph.Mutation) []byte {
		srv := server.New(server.Config{Mutable: true})
		defer srv.Close()
		h, err := srv.Store().Load("g", base, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bs {
			if _, err := h.Mutate(b, 0); err != nil {
				t.Fatal(err)
			}
		}
		var doc bytes.Buffer
		if err := graph.WriteJSON(&doc, h.Snapshot().G); err != nil {
			t.Fatal(err)
		}
		return doc.Bytes()
	}
	if err := checkExport(export(batches), base, batches); err != nil {
		t.Fatalf("all writes present, but: %v", err)
	}
	lost := append(append([][]graph.Mutation(nil), batches[:3]...), batches[4:]...)
	if err := checkExport(export(lost), base, batches); err == nil {
		t.Fatal("export missing an acknowledged batch accepted")
	}
}

func TestReferenceMatchesServerOnEveryKind(t *testing.T) {
	for _, q := range []server.QueryRequest{
		{Graph: "bank", Query: "Transfer*"},
		{Graph: "bank", Query: "q(x, y) :- Transfer(x, y)"},
		{Graph: "bank", Lang: "gql", Query: "(x)-[:Transfer]->(y)"},
		{Graph: "bank", Query: "Transfer+", From: "a1", To: "a3", Mode: "shortest"},
	} {
		want, kind, body := bankReply(t, q)
		got, err := scanBuffered(body, kind)
		if err != nil || got != want {
			t.Errorf("%q: reply %+v (%v), reference %+v", q.Query, got, err, want)
		}
	}
}
