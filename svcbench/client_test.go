package main

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"graphquery/internal/graph"
	"graphquery/internal/server"
)

func TestClientStaysWithinCPUCountConnections(t *testing.T) {
	nproc := runtime.NumCPU()
	w := &workload{name: "bank", clients: 4 * nproc, catalog: []string{"bank"}, primary: "bank",
		build: func(*rand.Rand, string, *graph.Graph) []*op {
			return []*op{
				{group: "star", graph: "bank", req: server.QueryRequest{Graph: "bank", Query: "Transfer*"}},
				{group: "star", graph: "bank", stream: true, req: server.QueryRequest{Graph: "bank", Query: "Transfer*"}},
			}
		}}
	in, err := prepare(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := setUp(w, in, nproc, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	// More clients than connections: the transport must make them share.
	res := runLoop(w, in, e.hc, e.base, newLoopState(w, in, w.clients, 1), w.clients, 1, 300*time.Millisecond, nil)
	if len(res.samples) == 0 {
		t.Fatal("no operations ran")
	}
	for _, s := range res.samples {
		if s.err != nil {
			t.Fatal(s.err)
		}
	}
	if peak := e.ln.peak.Load(); peak > int64(nproc) {
		t.Fatalf("%d connections open at once, limit %d", peak, nproc)
	}
}
