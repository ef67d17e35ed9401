// Command htbench regenerates every table and figure of the paper's
// evaluation (§7) on the simulated testbed, prints the results in
// paper-style rows, and writes a machine-readable BENCH_results.json so the
// suite's performance trajectory can be tracked across commits.
//
// Usage:
//
//	htbench [-quick] [-seed N] [-run substr] [-workers N] [-simworkers N]
//	        [-json file] [-trace file] [-cpuprofile file] [-memprofile file]
//
// -run selects experiments whose ID contains the substring (e.g. "Fig. 11"
// or "Table"); the default runs everything in paper order. Experiments fan
// out across -workers goroutines (default GOMAXPROCS; results are
// bit-identical to -workers 1 — each experiment owns its simulator and
// seeded RNG streams). -simworkers > 1 additionally parallelizes INSIDE
// each experiment: device topologies run on the conservative parallel
// discrete-event engine (one logical process per device) and CPU-bound
// sweeps on a same-width pool, again with bit-identical results.
// Per-experiment allocation counts are only recorded with -workers 1 and
// -simworkers 1, where the runtime's allocation counters are attributable
// to a single experiment at a time.
//
// -trace runs the observability sample workload (internal/experiments.
// TraceSample) after the measured suite, writes its per-packet lifecycle
// trace as Chrome trace-event JSON loadable in Perfetto, and stamps the
// run's metrics snapshot into BENCH_results.json under "obs". The measured
// suite itself always runs untraced, so trace collection never skews the
// wall clocks perfguard gates on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/experiments"
	"github.com/hypertester/hypertester/internal/netsim"
)

// expReport is one experiment's entry in BENCH_results.json.
type expReport struct {
	ID            string  `json:"id"`
	Title         string  `json:"title"`
	HeadlineValue float64 `json:"headline_value"`
	HeadlineUnit  string  `json:"headline_unit"`
	WallSeconds   float64 `json:"wall_s"`
	NsPerOp       float64 `json:"ns_op"`
	// AllocsPerOp is the experiment's heap-allocation count; present only
	// when the suite ran with -workers 1.
	AllocsPerOp *uint64 `json:"allocs_op,omitempty"`
}

// benchReport is the top-level BENCH_results.json document.
type benchReport struct {
	GeneratedUnix int64 `json:"generated_unix"`
	// GitRev is the VCS revision the binary was built from ("unknown" when
	// no build info or git checkout is available), so a results file is
	// attributable to a commit.
	GitRev string `json:"git_rev"`
	// Scheduler and TableImpl tag the core data-structure implementations
	// active for this run; they explain step changes in the trajectory.
	Scheduler string `json:"scheduler"`
	TableImpl string `json:"table_impl"`
	// Engine is the discrete-event engine the testbeds ran on: the
	// sequential scheduler when SimWorkers <= 1, the parallel LP engine
	// otherwise.
	Engine           string  `json:"engine"`
	Quick            bool    `json:"quick"`
	Seed             int64   `json:"seed"`
	Workers          int     `json:"workers"`
	SimWorkers       int     `json:"sim_workers"`
	GOMAXPROCS       int     `json:"gomaxprocs"`
	TotalWallSeconds float64 `json:"total_wall_s"`
	// TracedSuite records whether per-packet tracing was enabled during the
	// measured suite. htbench always measures untraced — the -trace sample
	// runs after measurement — so this is false here; the field exists so
	// perfguard can reject results files whose timings include tracing
	// overhead.
	TracedSuite bool `json:"traced_suite"`
	// Obs is the observability snapshot of the post-suite traced sample run
	// (tester switch counters, per-sink traffic, scheduler and LP-engine
	// stats, trace stream sizes); present only with -trace.
	Obs         map[string]any `json:"obs,omitempty"`
	Experiments []expReport    `json:"experiments"`
}

// gitRev resolves the source revision: stamped VCS build info first (present
// for installed builds), then a live `git rev-parse` (the common `go run`
// path), else "unknown".
func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// engineName tags which discrete-event engine ran the testbeds.
func engineName(simWorkers int) string {
	if simWorkers > 1 {
		return netsim.EngineImpl
	}
	return "sequential"
}

func main() {
	quick := flag.Bool("quick", false, "shrink measurement windows and sweeps")
	seed := flag.Int64("seed", 1, "experiment seed")
	run := flag.String("run", "", "only run experiments whose ID contains this substring")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "experiment worker-pool size")
	simWorkers := flag.Int("simworkers", 1, "per-experiment worker budget: >1 runs testbeds on the parallel LP engine")
	jsonPath := flag.String("json", "BENCH_results.json", "write machine-readable results here (empty to disable)")
	tracePath := flag.String("trace", "", "after the suite, run the traced sample workload and write a Perfetto-loadable Chrome trace JSON here")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile here")
	memprofile := flag.String("memprofile", "", "write a heap profile here (captured after the run)")
	flag.Parse()

	if *simWorkers < 1 {
		*simWorkers = 1
	}
	cfg := experiments.Config{Quick: *quick, Seed: *seed, SimWorkers: *simWorkers}

	var specs []experiments.Spec
	for _, sp := range experiments.Specs() {
		if *run == "" || strings.Contains(sp.ID, *run) {
			specs = append(specs, sp)
		}
	}
	if len(specs) == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matches -run %q\n", *run)
		os.Exit(1)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *workers < 1 {
		*workers = 1
	}
	sequential := *workers == 1 && *simWorkers == 1

	// Wrap each spec to record its own wall clock (and, when running
	// sequentially, its allocation count) without perturbing the runner.
	reports := make([]expReport, len(specs))
	wrapped := make([]experiments.Spec, len(specs))
	var mu sync.Mutex // guards ReadMemStats bracketing in sequential mode
	for i, sp := range specs {
		i, sp := i, sp
		wrapped[i] = experiments.Spec{ID: sp.ID, Fn: func(c experiments.Config) *experiments.Result {
			var m0 runtime.MemStats
			if sequential {
				mu.Lock()
				runtime.ReadMemStats(&m0)
			}
			t0 := time.Now()
			res := sp.Fn(c)
			wall := time.Since(t0)
			reports[i].WallSeconds = wall.Seconds()
			reports[i].NsPerOp = float64(wall.Nanoseconds())
			if sequential {
				var m1 runtime.MemStats
				runtime.ReadMemStats(&m1)
				allocs := m1.Mallocs - m0.Mallocs
				reports[i].AllocsPerOp = &allocs
				mu.Unlock()
			}
			return res
		}}
	}

	prevMaxProcs := runtime.GOMAXPROCS(0)
	if *workers < prevMaxProcs {
		// Bound the pool by shrinking GOMAXPROCS for the run; Run sizes
		// its pool from it.
		runtime.GOMAXPROCS(*workers)
		defer runtime.GOMAXPROCS(prevMaxProcs)
	}

	t0 := time.Now()
	results := experiments.Run(cfg, wrapped)
	total := time.Since(t0)

	for i, res := range results {
		reports[i].ID = res.ID
		reports[i].Title = res.Title
		v, unit, err := experiments.Headline(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "headline: %v\n", err)
			os.Exit(1)
		}
		reports[i].HeadlineValue = v
		reports[i].HeadlineUnit = unit
		fmt.Println(res.String())
		fmt.Printf("(%.1fs)\n\n", reports[i].WallSeconds)
	}
	fmt.Printf("%d experiments in %.1fs (%d workers)\n", len(results), total.Seconds(), *workers)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}

	// The traced sample runs after the measured suite so tracing overhead
	// never reaches the wall clocks perfguard gates on.
	var obsSnapshot map[string]any
	if *tracePath != "" {
		ts, reg, err := experiments.TraceSample(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		if err := ts.WriteChromeTrace(f); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		obsSnapshot = reg.Snapshot()
		obsSnapshot["trace.streams"] = len(ts.Traces())
		obsSnapshot["trace.records"] = ts.Len()
		obsSnapshot["trace.dropped"] = ts.Dropped()
		fmt.Printf("wrote %s (%d records across %d streams)\n", *tracePath, ts.Len(), len(ts.Traces()))
	}

	if *jsonPath != "" {
		doc := benchReport{
			GeneratedUnix:    time.Now().Unix(),
			GitRev:           gitRev(),
			Scheduler:        netsim.SchedulerImpl,
			TableImpl:        asic.TableImpl,
			Engine:           engineName(*simWorkers),
			Quick:            *quick,
			Seed:             *seed,
			Workers:          *workers,
			SimWorkers:       *simWorkers,
			GOMAXPROCS:       prevMaxProcs,
			TotalWallSeconds: total.Seconds(),
			TracedSuite:      false, // the measured suite above never traces
			Obs:              obsSnapshot,
			Experiments:      reports,
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}
