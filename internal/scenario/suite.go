package scenario

import (
	"encoding/json"
	"fmt"

	"github.com/hypertester/hypertester/internal/experiments"
)

// SuiteResult is the machine-readable outcome of a suite run (the -results
// file the CLI writes).
type SuiteResult struct {
	Suite string `json:"suite"`
	// SimWorkers echoes the engine the suite ran on (0 = each scenario's
	// own topology setting).
	SimWorkers int          `json:"sim_workers"`
	Pass       bool         `json:"pass"`
	Passed     int          `json:"passed"` // scenarios fully passing
	Failed     int          `json:"failed"`
	Scenarios  []*RunResult `json:"scenarios"`
}

// Encode renders the result as indented JSON.
func (r *SuiteResult) Encode() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// RunSuite executes every scenario of a suite on the experiments worker
// pool — the same runner the 18 paper reproductions use, so scenarios get
// its input-order results and per-spec panic containment for free. workers
// overrides each scenario's SimWorkers when > 0. Scenario errors (compile
// failures, panics) fail that scenario and the suite, never the process.
func RunSuite(suite *Suite, workers int) *SuiteResult {
	slots := make([]*RunResult, len(suite.Scenarios))
	specs := make([]experiments.Spec, len(suite.Scenarios))
	for i, sc := range suite.Scenarios {
		i, sc := i, sc
		specs[i] = experiments.Spec{
			ID: "scenario/" + sc.Name,
			Fn: func(cfg experiments.Config) *experiments.Result {
				w := workers
				if cfg.SimWorkers > 0 {
					w = cfg.SimWorkers
				}
				r, err := Run(sc, w)
				if err != nil {
					r = &RunResult{Name: sc.Name, Title: sc.Title, Err: err.Error()}
				}
				slots[i] = r
				return r.Table()
			},
		}
	}
	experiments.Run(experiments.Config{SimWorkers: workers}, specs)

	out := &SuiteResult{Suite: suite.Name, SimWorkers: workers, Pass: true}
	for i, sc := range suite.Scenarios {
		r := slots[i]
		if r == nil {
			// The scenario panicked: experiments.Run recovered it before the
			// slot was written. Report it as a failed scenario.
			r = &RunResult{Name: sc.Name, Title: sc.Title,
				Err: "scenario panicked; see the suite log"}
		}
		out.Scenarios = append(out.Scenarios, r)
		if r.Pass && r.Err == "" {
			out.Passed++
		} else {
			out.Failed++
			out.Pass = false
		}
	}
	return out
}

// Table renders the run as an experiments result: one row per check plus a
// closing tally row whose first cell parses as the headline ("N of M
// passed" → N).
func (r *RunResult) Table() *experiments.Result {
	title := r.Title
	if title == "" {
		title = "scenario"
	}
	res := &experiments.Result{
		ID:      "scenario/" + r.Name,
		Title:   title,
		Columns: []string{"result", "observed"},
	}
	if r.Err != "" {
		res.Title = "scenario failed"
		res.Notes = append(res.Notes, r.Err)
		return res
	}
	for _, c := range r.Checks {
		verdict := "PASS"
		if !c.Pass {
			verdict = "FAIL (" + c.Detail + ")"
		}
		res.Rows = append(res.Rows, experiments.Row{
			Label:  c.Name,
			Values: []string{verdict, c.Got},
		})
	}
	res.Rows = append(res.Rows, experiments.Row{
		Label:  "checks",
		Values: []string{fmt.Sprintf("%d of %d passed", r.Passed, r.Passed+r.Failed), ""},
	})
	return res
}
