package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "perfbench.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "client.publish", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "client.publish", Start: 20, End: 50}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "wal.append", Start: 90, End: 120},    // outlives its parent
		{ID: 5, Parent: 3, Name: "wire.encode", Start: 25, End: 35},
		{ID: 6, Parent: 1, Name: "client.publish", Start: 60, End: 60}, // empty
	}
	self := selfTimes(spans)
	want := map[uint64]int64{
		1: 100 - 40 - 10, // children cover [10,50] and [90,100]
		2: 20,
		3: 30 - 10,
		4: 30,
		5: 10,
		6: 0,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
	layers := layerTimes(spans)
	if l := layers["client"]; l.Spans != 3 || l.SelfMs != 40/1e6 {
		t.Errorf("client layer = %+v", l)
	}
	if l := layers["perfbench"]; l.SelfMs != 50/1e6 || l.TotalMs != 100/1e6 {
		t.Errorf("perfbench layer = %+v", l)
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	tk := tr.Track()
	root := tk.Begin("perfbench.run", 0)
	child := tk.Begin("client.publish", root)
	tk.End(child)
	open := tk.Begin("client.never_closed", root)
	_ = open
	tk.End(root)
	other := tr.Track()
	other.End(other.Begin("session.flush", root))

	spans, dropped := tr.Spans()
	if dropped != 0 || len(spans) != 3 {
		t.Fatalf("got %d spans (%d dropped), want 3 closed spans", len(spans), dropped)
	}
	ids := map[uint64]bool{}
	for _, s := range spans {
		if ids[s.ID] {
			t.Errorf("duplicate span ID %d across tracks", s.ID)
		}
		ids[s.ID] = true
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if spans[1].Parent != root {
		t.Errorf("child parent = %d, want %d", spans[1].Parent, root)
	}

	var untraced *Tracer
	utk := untraced.Track()
	utk.End(utk.Begin("client.publish", 0)) // a nil Track records nothing
	if s, _ := untraced.Spans(); s != nil {
		t.Error("nil tracer returned spans")
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the printed metric names and
// units identical to the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: code %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bench.EndToEnd)
	check("per_layer", perLayer, bench.PerLayer)
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in code", len(bench.Workloads), len(workloads))
	}
}
