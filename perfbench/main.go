// Command perfbench is the repository benchmark. It runs one seeded testbed
// workload as a closed loop of back-to-back iterations, each one complete
// test through the public API: NTAPI source text -> parsed task -> started
// tester -> warm-up -> fixed simulated window -> reports -> output checks.
// Only host time is measured; every simulated statistic is a correctness
// check that must repeat exactly at a given seed.
//
//	bash perfbench/run.sh --workload linerate-4x100g --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates traced and untraced iterations and reports the per-layer
// metrics, the tracing overhead, and writes the spans as a Perfetto-loadable
// Chrome trace under .bench_build/trace/. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	hypertester "github.com/hypertester/hypertester"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/testbed"
)

// minIterations is the fewest measured iterations of each kind (traced,
// untraced) a run makes, even past its time budget.
const minIterations = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// iteration is what one complete test measured.
type iteration struct {
	out          *outcome
	setup, total time.Duration
	run          time.Duration // warm-up + window
	window       time.Duration
	windowFrames uint64 // tester TX + RX frames during the window
	slices       []time.Duration

	// Traced iterations only.
	self                  map[string]time.Duration
	spans                 int
	compileAlloc, mallocs uint64
	gcCount               uint32
	gcPause               time.Duration
}

// iterate runs one complete test. tr is nil for an untraced iteration; ref,
// when set, is what every output must reproduce. It returns the
// broken invariants alongside the measurements.
func iterate(w *workload, g program, tr *tracer, ref *reference) (*iteration, []string, error) {
	it := &iteration{}
	var ms runtime.MemStats
	nspans := 0
	if tr != nil {
		nspans = len(tr.spans)
	}
	t0 := time.Now()
	root := tr.begin("iteration", 0)
	// call times fn as one span of the named layer.
	call := func(name string, fn func()) {
		sp := tr.begin(name, root)
		fn()
		tr.end(sp)
	}

	var task *ntapi.Task
	var err error
	call("ntapi.parse", func() { task, err = ntapi.Parse(w.name, g.source) })
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	var p *testbed.Partition
	call("testbed.wire", func() { p = testbed.NewPartition(w.workers) })
	var ht *hypertester.Tester
	call("asic.new", func() {
		gbps := make([]float64, w.ports)
		for i := range gbps {
			gbps[i] = 100
		}
		ht = hypertester.New(hypertester.Config{Sim: p.LP("tester"), Ports: gbps, Seed: g.testerSeed, Name: "tester"})
	})
	if tr != nil {
		runtime.ReadMemStats(&ms)
		it.compileAlloc = ms.TotalAlloc
	}
	call("compiler.load", func() { err = ht.LoadTask(task) })
	if err != nil {
		return nil, nil, fmt.Errorf("load task: %w", err)
	}
	if tr != nil {
		runtime.ReadMemStats(&ms)
		it.compileAlloc = ms.TotalAlloc - it.compileAlloc
	}
	var d *duts
	call("testbed.wire", func() { d = w.wire(p, ht) })
	call("htps.start", func() { err = ht.Start() })
	if err != nil {
		return nil, nil, fmt.Errorf("start: %w", err)
	}
	it.setup = time.Since(t0)

	if tr != nil {
		runtime.ReadMemStats(&ms)
		it.mallocs, it.gcCount, it.gcPause = ms.Mallocs, ms.NumGC, time.Duration(ms.PauseTotalNs)
	}
	runStart := time.Now()
	call("netsim.run", func() { p.RunFor(w.warmup) })
	frames0 := testerFrames(ht)
	slice := w.window / netsim.Duration(w.slices)
	winStart := time.Now()
	for i := 0; i < w.slices; i++ {
		s := time.Now()
		call("netsim.run", func() { p.RunFor(slice) })
		it.slices = append(it.slices, time.Since(s))
	}
	it.window = time.Since(winStart)
	it.run = time.Since(runStart)
	it.windowFrames = testerFrames(ht) - frames0
	if tr != nil {
		runtime.ReadMemStats(&ms)
		it.mallocs = ms.Mallocs - it.mallocs
		it.gcCount = ms.NumGC - it.gcCount
		it.gcPause = time.Duration(ms.PauseTotalNs) - it.gcPause
	}

	var bad []string
	call("htpr.report", func() { it.out = collect(p, ht, d, ht.Reports()) })
	call("bench.check", func() {
		bad = w.check(it.out, g)
		if ref != nil {
			bad = append(bad, ref.check(it.out)...)
		}
	})
	tr.end(root)
	it.total = time.Since(t0)
	if tr != nil {
		it.self = selfTimes(tr.spans[nspans:])
		it.spans = len(tr.spans) - nspans
	}
	return it, bad, nil
}

// testerFrames counts frames the tester's front-panel ports sent and
// received so far.
func testerFrames(ht *hypertester.Tester) uint64 {
	var n uint64
	for i := 0; i < ht.Switch.NumPorts(); i++ {
		pt := ht.Port(i)
		n += pt.TxPackets + pt.RxPackets
	}
	return n
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// table collects metrics in print order with their sample counts.
type table struct {
	rows []row
	res  result
}

type row struct {
	name, unit string
	value      float64
	samples    int
	printOnly  bool // printed in the summary, left out of the JSON result
}

// add records a metric that BENCHMARK.json declares.
func (t *table) add(name, unit string, v float64, samples int) {
	t.rows = append(t.rows, row{name, unit, v, samples, false})
	t.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// note records a metric that is only printed.
func (t *table) note(name, unit string, v float64, samples int) {
	t.rows = append(t.rows, row{name, unit, v, samples, true})
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "host seconds to keep starting measured iterations")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 || *seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: --trace takes 0 or 1, --seconds at least 1, and no other arguments")
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	traced := *traceFlag == 1
	// The benchmark host has two cores: at most two Ps, matching the
	// LP engine's two workers.
	if runtime.NumCPU() >= 2 {
		runtime.GOMAXPROCS(2)
	}

	g := w.generate(*seed)
	attempted, failed := 0, 0
	record := func(bad []string) {
		attempted++
		if len(bad) > 0 {
			failed++
			fmt.Fprintf(stderr, "perfbench: iteration %d: %v\n", attempted, bad)
		}
	}
	// The first iteration warms caches and lazy set-up and fixes the
	// outputs every later iteration must reproduce; it is not timed.
	first, bad, err := iterate(w, g, nil, nil)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	record(bad)
	ref := first.out.reference()

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var plain, withSpans []*iteration
	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	for i := 0; ; i++ {
		enough := len(plain) >= minIterations && (!traced || len(withSpans) >= minIterations)
		if enough && !time.Now().Before(deadline) {
			break
		}
		// Garbage left by the previous test is not this test's cost.
		runtime.GC()
		var itr *tracer
		if traced && i%2 == 0 {
			itr = tr
		}
		it, bad, err := iterate(w, g, itr, &ref)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		record(bad)
		if itr != nil {
			withSpans = append(withSpans, it)
		} else {
			plain = append(plain, it)
		}
	}

	t := &table{res: result{
		Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{},
	}}
	if traced {
		layerMetrics(t, first.out.c, plain, withSpans)
		path := fmt.Sprintf(".bench_build/trace/%s-seed%d.json", w.name, *seed)
		if err := tr.writeChromeTrace(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: write trace:", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(tr.spans), path)
	} else {
		endToEndMetrics(t, plain)
	}

	fmt.Fprintf(stdout, "workload %s seed %d: %d iterations, %d failed\n", w.name, *seed, attempted, failed)
	t.note("failed_frac", "ratio", float64(failed)/float64(attempted), attempted)
	for _, r := range t.rows {
		mark := ""
		if r.printOnly {
			mark = " (not in the JSON result)"
		}
		fmt.Fprintf(stdout, "  %-28s %16.6g %-6s n=%d%s\n", r.name, r.value, r.unit, r.samples, mark)
	}
	line, err := json.Marshal(t.res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// endToEndMetrics reports what a user of the tester waits for, from the
// untraced iterations.
func endToEndMetrics(t *table, its []*iteration) {
	var setup, total, pps, slices []float64
	for _, it := range its {
		setup = append(setup, it.setup.Seconds())
		total = append(total, it.total.Seconds())
		pps = append(pps, float64(it.windowFrames)/it.window.Seconds())
		for _, s := range it.slices {
			slices = append(slices, float64(s.Nanoseconds())/1e6)
		}
	}
	n := len(its)
	t.add("setup_s", "s", median(setup), n)
	t.add("test_s", "s", median(total), n)
	t.add("sim_pps", "1/s", median(pps), n)
	t.add("slice_ms_p50", "ms", quantile(slices, 0.5), len(slices))
	// The p90 slice follows the host's slow spells more than the program:
	// across seeds its spread exceeded the largest bound a gated metric
	// may have, so it is reported but not gated.
	t.note("slice_ms_p90", "ms", quantile(slices, 0.9), len(slices))
	t.add("max_rss_mb", "MB", maxRSSMB(), 1)
}

// layerMetrics reports the per-layer breakdown: self times from the traced
// iterations, work counts from the first iteration (every iteration
// reproduces them), and the tracing overhead against the untraced ones.
func layerMetrics(t *table, c counts, plain, traced []*iteration) {
	n := len(traced)
	per := func(f func(it *iteration) float64) float64 {
		v := make([]float64, n)
		for i, it := range traced {
			v[i] = f(it)
		}
		return median(v)
	}
	self := func(span string) float64 {
		return per(func(it *iteration) float64 { return it.self[span].Seconds() })
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	frames := float64(c.TxFrames + c.RxFrames)

	t.add("ntapi.parse_s", "s", self("ntapi.parse"), n)
	t.add("asic.new_s", "s", self("asic.new"), n)
	t.add("compiler.load_s", "s", self("compiler.load"), n)
	t.add("compiler.alloc_mb", "MB", per(func(it *iteration) float64 { return float64(it.compileAlloc) / (1 << 20) }), n)
	t.add("compiler.ns_per_tuple", "ns", per(func(it *iteration) float64 {
		return ratio(float64(it.self["compiler.load"].Nanoseconds()), float64(c.HeaderSpace))
	}), n)
	t.add("compiler.header_space", "count", float64(c.HeaderSpace), 1)
	t.add("compiler.exact_keys", "count", float64(c.ExactKeys), 1)
	t.add("compiler.truncated_queries", "count", float64(c.TruncatedQueries), 1)
	t.add("testbed.wire_s", "s", self("testbed.wire"), n)
	t.add("testbed.dut_frames", "count", float64(c.DUTFrames), 1)
	t.add("htps.start_s", "s", self("htps.start"), n)
	t.add("htps.templates_fired", "count", float64(c.TemplatesFired), 1)
	t.add("netsim.run_s", "s", self("netsim.run"), n)
	t.add("netsim.events", "count", float64(c.Events), 1)
	t.add("netsim.ns_per_event", "ns", per(func(it *iteration) float64 {
		return ratio(float64(it.run.Nanoseconds()), float64(c.Events))
	}), n)
	t.add("netsim.epochs", "count", float64(c.Epochs), 1)
	t.add("netsim.xlp_msgs", "count", float64(c.XLPMsgs), 1)
	t.add("netsim.stalls", "count", float64(c.Stalls), 1)
	t.add("netsim.events_per_epoch", "count", ratio(float64(c.Events), float64(c.Epochs)), 1)
	t.add("asic.tx_frames", "count", float64(c.TxFrames), 1)
	t.add("asic.rx_frames", "count", float64(c.RxFrames), 1)
	t.add("asic.recirc_passes", "count", float64(c.RecircPasses), 1)
	t.add("asic.tx_drops", "count", float64(c.TxDrops), 1)
	t.add("asic.passes_per_frame", "count", ratio(float64(c.RecircPasses), float64(c.TxFrames)), 1)
	t.add("asic.ns_per_pass", "ns", per(func(it *iteration) float64 {
		return ratio(float64(it.run.Nanoseconds()), float64(c.RecircPasses)+frames)
	}), n)
	t.add("htpr.report_s", "s", self("htpr.report"), n)
	t.add("htpr.result_keys", "count", float64(c.ResultKeys), 1)
	t.add("htpr.digests", "count", float64(c.Digests), 1)
	t.add("htpr.digest_drops", "count", float64(c.DigestDrops), 1)
	t.add("runtime.allocs_per_frame", "count", per(func(it *iteration) float64 {
		return ratio(float64(it.mallocs), frames)
	}), n)
	t.add("runtime.gc_count", "count", per(func(it *iteration) float64 { return float64(it.gcCount) }), n)
	t.add("runtime.gc_pause_ms", "ms", per(func(it *iteration) float64 { return float64(it.gcPause.Nanoseconds()) / 1e6 }), n)
	t.add("bench.check_s", "s", self("bench.check"), n)
	t.add("bench.other_s", "s", self("iteration"), n)

	var plainTotal, tracedTotal []float64
	for _, it := range plain {
		plainTotal = append(plainTotal, it.total.Seconds())
	}
	for _, it := range traced {
		tracedTotal = append(tracedTotal, it.total.Seconds())
	}
	t.add("trace.overhead_s", "s", median(tracedTotal)-median(plainTotal), min(len(plain), n))
	t.add("trace.spans", "count", per(func(it *iteration) float64 { return float64(it.spans) }), n)
}

// median returns the middle value (the mean of the two middle values for
// an even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile returns the q-quantile by linear interpolation between the
// closest ranks.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
