package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hypertester/hypertester/internal/core/htpr"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/netsim"
)

func TestGeneratorIsSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.generate(7), w.generate(7), w.generate(8)
		if a.source != b.source || a.testerSeed != b.testerSeed {
			t.Errorf("%s: seed 7 generated two different programs", w.name)
		}
		if a.source == c.source || a.testerSeed == c.testerSeed {
			t.Errorf("%s: seeds 7 and 8 generated the same program", w.name)
		}
		if _, err := ntapi.Parse(w.name, a.source); err != nil {
			t.Errorf("%s: generated source does not parse: %v", w.name, err)
		}
	}
}

// short returns a copy of the named workload with its window cut to d, so
// tests run a real iteration quickly.
func short(t *testing.T, name string, d netsim.Duration) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	c := *w
	c.window, c.slices = d, 2
	return &c
}

// clone deep-copies an outcome so a test can corrupt it.
func clone(o *outcome) *outcome {
	c := *o
	c.reports = make([]htpr.Report, len(o.reports))
	for i, r := range o.reports {
		r.Results = append([]htpr.Result(nil), r.Results...)
		c.reports[i] = r
	}
	c.portTx = append([]uint64(nil), o.portTx...)
	c.sinkRx = append([]uint64(nil), o.sinkRx...)
	return &c
}

func q1(o *outcome) *htpr.Report {
	for i := range o.reports {
		if o.reports[i].Query == "Q1" {
			return &o.reports[i]
		}
	}
	panic("no Q1 report")
}

// TestInvariantsTrip runs each workload for real, checks that its outputs
// pass, then corrupts them one way at a time and checks that the workload's
// invariants or the reference comparison catch each corruption.
func TestInvariantsTrip(t *testing.T) {
	cases := []struct {
		workload string
		window   netsim.Duration
		corrupt  map[string]func(o *outcome)
	}{
		{"linerate-4x100g", 20 * netsim.Microsecond, map[string]func(o *outcome){
			"Q1 bytes": func(o *outcome) {
				r := q1(o) // keep the per-source sums consistent with the bytes
				r.Bytes++
				r.Results[0].Value++
			},
			"Q1 per-source sum":  func(o *outcome) { q1(o).Results[0].Value += 64 },
			"sink ahead of port": func(o *outcome) { o.sinkRx[1] = o.portTx[1] + 1 },
			"sink behind port":   func(o *outcome) { o.sinkRx[2] = 0 },
		}},
		{"web-stateful", netsim.Millisecond, map[string]func(o *outcome){
			"request without handshake": func(o *outcome) { o.farmRequests = o.farmHandshakes + 1 },
			"lost requests":             func(o *outcome) { o.farmRequests -= webInflight + 1 },
			"lost handshakes":           func(o *outcome) { q1(o).Matches += webInflight + 1 },
			"handshake without SYN+ACK": func(o *outcome) { o.farmHandshakes, o.farmRequests = q1(o).Matches+1, q1(o).Matches+1 },
		}},
		{"flowcount-1m", 20 * netsim.Microsecond, map[string]func(o *outcome){
			"Q1 matches": func(o *outcome) { q1(o).Matches++ },
			"repeated key": func(o *outcome) {
				r := q1(o)
				r.Results = append(r.Results, htpr.Result{Key: r.Results[0].Key})
			},
			"key outside the space": func(o *outcome) {
				r := q1(o)
				r.Results[0].Key = append([]uint64{r.Results[0].Key[0] + flowSips}, r.Results[0].Key[1:]...)
			},
			"capped header space": func(o *outcome) { o.c.HeaderSpace = 1 << 19 },
			"truncated query":     func(o *outcome) { o.c.TruncatedQueries = 1 },
		}},
	}
	for _, tc := range cases {
		w := short(t, tc.workload, tc.window)
		g := w.generate(3)
		it, bad, err := iterate(w, g, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(bad) > 0 {
			t.Fatalf("%s: clean outputs fail their checks: %v", w.name, bad)
		}
		ref := it.out.reference()
		for name, corrupt := range tc.corrupt {
			o := clone(it.out)
			corrupt(o)
			if len(w.check(o, g)) == 0 {
				t.Errorf("%s: invariants missed corruption %q", w.name, name)
			}
			if len(ref.check(o)) == 0 {
				t.Errorf("%s: reference comparison missed corruption %q", w.name, name)
			}
		}
		o := clone(it.out)
		o.c.Events++
		if len(ref.check(o)) == 0 {
			t.Errorf("%s: reference comparison missed a changed event count", w.name)
		}
	}
}

// TestLinerateEngineParity runs linerate-4x100g on the sequential engine and
// on the 2-worker LP engine: the simulated outputs must be identical.
func TestLinerateEngineParity(t *testing.T) {
	lp := short(t, "linerate-4x100g", 40*netsim.Microsecond)
	seq := *lp
	seq.workers = 1
	g := lp.generate(5)
	a, _, err := iterate(&seq, g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := iterate(lp, g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.out.digest() != b.out.digest() {
		t.Errorf("output digests differ: sequential %+v, LP %+v", a.out.c, b.out.c)
	}
	if b.out.c.Epochs == 0 || b.out.c.XLPMsgs == 0 {
		t.Errorf("LP run did no synchronisation: %+v", b.out.c)
	}
}

// TestSelfTimes checks the self-time arithmetic on a fixed span tree:
//
//	root [0,100)
//	├─ a [10,40)          ─ aa [15,20)
//	├─ b [30,60)          overlaps a: covered part is the union
//	└─ c [90,120)         runs past root: clipped to root's end
func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "root", id: 1, start: 0, end: 100 * ms},
		{name: "a", id: 2, parent: 1, start: 10 * ms, end: 40 * ms},
		{name: "aa", id: 3, parent: 2, start: 15 * ms, end: 20 * ms},
		{name: "b", id: 4, parent: 1, start: 30 * ms, end: 60 * ms},
		{name: "c", id: 5, parent: 1, start: 90 * ms, end: 120 * ms},
		{name: "b", id: 6, start: 200 * ms, end: 210 * ms}, // a second root, same name as a child
	}
	want := map[string]time.Duration{"root": 40 * ms, "a": 25 * ms, "aa": 5 * ms, "b": 40 * ms, "c": 30 * ms}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self time of %s = %v, want %v", name, got[name], d)
		}
	}
}

func TestChromeTraceLoads(t *testing.T) {
	tr := newTracer()
	root := tr.begin("iteration", 0)
	tr.end(tr.begin("ntapi.parse", root))
	tr.end(root)
	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := tr.writeChromeTrace(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Ph != "X" || doc.TraceEvents[1].Args["parent"] != 1 {
		t.Errorf("unexpected trace events: %+v", doc.TraceEvents)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "web-stateful", "--trace", "2"},
		{"--workload", "web-stateful", "--seconds", "0"},
		{"--workload", "web-stateful", "extra"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
		if out.Len() != 0 || !strings.Contains(errOut.String(), "perfbench:") {
			t.Errorf("%v: stdout %q, stderr %q", args, out.String(), errOut.String())
		}
	}
}
