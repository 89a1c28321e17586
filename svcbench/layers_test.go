package main

import "testing"

func TestSelfNSSubtractsCoveredInterval(t *testing.T) {
	p := span{ID: 1, Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one inside", []span{{Start: 120, End: 150}}, 70},
		{"overlapping count once", []span{{Start: 120, End: 150}, {Start: 140, End: 170}}, 50},
		{"disjoint", []span{{Start: 100, End: 110}, {Start: 190, End: 200}}, 80},
		{"clipped to parent", []span{{Start: 50, End: 130}, {Start: 180, End: 400}}, 50},
		{"outside", []span{{Start: 300, End: 400}}, 100},
	} {
		if got := selfNS(p, c.children); got != c.want {
			t.Errorf("%s: selfNS = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfMeanIsOuterMinusInnerPerOp(t *testing.T) {
	times := map[string]map[int]float64{
		"server.handler": {1: 10, 2: 30, 3: 50},
		"core.query":     {1: 4, 2: 10},
		"eval.pairs":     {1: 1, 2: 6},
	}
	// Op 3 has no core.query time and is left out.
	if got := selfMean(times, "server.handler", func(int) string { return "core.query" }); got != 13 {
		t.Errorf("server self = %g, want 13", got)
	}
	if got := selfMean(times, "core.query", func(int) string { return "eval.pairs" }); got != 3.5 {
		t.Errorf("core self = %g, want 3.5", got)
	}
}

func TestWireMSIsClientSpanOutsideHandler(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.read", Start: 0, End: 3e6},
		{ID: 2, Parent: 1, Name: "server.handler", Start: 1e6, End: 2e6},
		{ID: 3, Name: "client.write", Start: 0, End: 5e6},
		{ID: 4, Parent: 3, Name: "server.handler", Start: 0, End: 4e6},
		{ID: 5, Name: "client.read", Start: 0, End: 9e6}, // no handler span: not counted
	}
	if got := wireMS(spans); got != 1.5 {
		t.Errorf("wireMS = %g, want 1.5", got)
	}
}

func TestLayerTimesTakesMedianOfReplayRuns(t *testing.T) {
	spans := []span{
		{ID: 10, Name: "replay.pairs", Op: 7},
		{ID: 11, Parent: 10, Op: 7, Name: "core.query", Start: 0, End: 5},
		{ID: 12, Parent: 10, Op: 7, Name: "core.query", Start: 0, End: 1},
		{ID: 13, Parent: 10, Op: 7, Name: "core.query", Start: 0, End: 3},
		{ID: 14, Parent: 99, Op: 7, Name: "core.query", Start: 0, End: 100}, // not under a replay root
	}
	if got := layerTimes(spans)["core.query"][7]; got != 3 {
		t.Errorf("core.query time = %g, want 3", got)
	}
}
