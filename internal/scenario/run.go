package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
	"github.com/hypertester/hypertester/internal/testbed"

	hypertester "github.com/hypertester/hypertester"
)

// RunResult is one executed scenario: every metric the run observed and
// the verdict of every declared check.
type RunResult struct {
	Name    string        `json:"name"`
	Title   string        `json:"title,omitempty"`
	Pass    bool          `json:"pass"`
	Passed  int           `json:"passed"`
	Failed  int           `json:"failed"`
	Checks  []CheckResult `json:"checks"`
	Metrics []Metric      `json:"metrics"`
	// Err is set when the scenario never produced metrics (compile error,
	// panic); such a run fails regardless of checks.
	Err string `json:"err,omitempty"`
}

// dut is one device-under-test instance and its metric contribution.
type dut struct {
	reset   func()           // clears counters at end of warmup (nil = none)
	collect func(m *Metrics) // records the DUT's metrics after the window
	iface   *testbed.Iface
}

// Run executes one scenario and evaluates its checks. workers > 0 overrides
// the topology's SimWorkers (the CLI's -simworkers and the differential
// tests use this); the observed metrics are bit-identical either way.
//
// Metric catalogue (names checks can reference):
//
//	port<i>.tx_packets/.tx_bytes/.rx_packets/.rx_bytes/.tx_drops
//	template<id>.fired
//	query.<name>.matches/.bytes/.distinct/.delay_samples/.delay_mean_ns/...
//	sink<i>.rx_packets/.rx_bytes/.gbps/.pps            (sink, hhsink)
//	reflector<i>.reflected                             (reflector)
//	scantarget<i>.probes_seen/.synacks_sent/.rsts_sent (scantarget)
//	httpfarm<i>.syn_received/.handshakes/.requests/.data_sent/
//	            .fin_received/.closed/.open_conns      (httpfarm)
//	hh<i>.flows/.packets/.top_count/.underestimates/
//	      .overestimate_total, hh<i>.top_flow (text)   (hhsink)
//	trace.records (num), trace.sha256 (text)
//
// Sink-style DUTs reset at the end of the warmup so rate metrics cover the
// clean window; stateful DUTs (httpfarm, scantarget, reflector) accumulate
// across the whole run, warm-up included.
func Run(sc *Scenario, workers int) (*RunResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.Program.Source == "" {
		return nil, fmt.Errorf("scenario %q: program file %q was not resolved at load time",
			sc.Name, sc.Program.File)
	}
	if workers <= 0 {
		workers = sc.Topology.SimWorkers
	}

	p := testbed.NewPartition(workers)
	trace := obs.NewTraceSet()
	ht := hypertester.New(hypertester.Config{
		Sim:   p.LP("tester"),
		Ports: sc.Topology.Ports,
		Seed:  sc.Traffic.Seed,
		Name:  "tester",
	})
	// Stream creation order (tester, then DUTs in port order) fixes merge
	// ranks, keeping the canonical trace engine-independent.
	ht.EnableTrace(trace.New("tester"))
	progName := sc.Program.Name
	if progName == "" {
		progName = sc.Name
	}
	if err := ht.LoadTaskSource(progName, string(sc.Program.Source)); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}

	duts := make([]dut, len(sc.Topology.Ports))
	for i := range sc.Topology.Ports {
		gbps := sc.Topology.DUTGbps
		if gbps == 0 {
			gbps = sc.Topology.Ports[i]
		}
		duts[i] = buildDUT(p, sc.Topology.DUT, i, gbps)
		duts[i].iface.SetTrace(trace.New(duts[i].iface.Name))
		p.Connect(ht.Port(i), duts[i].iface, netsim.Ns(sc.Topology.CableDelayNs))
	}
	if err := ht.Start(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}

	p.RunFor(netsim.Ns(sc.Traffic.WarmupUs * 1e3))
	for _, d := range duts {
		if d.reset != nil {
			d.reset()
		}
	}
	p.RunFor(netsim.Ns(sc.Traffic.WindowUs * 1e3))

	// Snapshot the trace before Reports(): the report flush drains digests
	// still in flight at the final boundary, and what is in flight there is
	// engine-dependent — the windowed trace is the engine-invariant oracle.
	traceRecords := trace.Len()
	sum := sha256.Sum256([]byte(trace.Canonical()))

	m := &Metrics{}
	for i := range sc.Topology.Ports {
		port := ht.Port(i)
		pre := fmt.Sprintf("port%d", i)
		m.AddNum(pre+".tx_packets", float64(port.TxPackets))
		m.AddNum(pre+".tx_bytes", float64(port.TxBytes))
		m.AddNum(pre+".rx_packets", float64(port.RxPackets))
		m.AddNum(pre+".rx_bytes", float64(port.RxBytes))
		m.AddNum(pre+".tx_drops", float64(port.TxDrops))
	}
	for _, tmpl := range ht.Program.Templates {
		m.AddNum(fmt.Sprintf("template%d.fired", tmpl.ID), float64(ht.Sender.FiredCount(tmpl.ID)))
	}
	for _, r := range ht.Reports() {
		pre := "query." + r.Query
		m.AddNum(pre+".matches", float64(r.Matches))
		m.AddNum(pre+".bytes", float64(r.Bytes))
		m.AddNum(pre+".distinct", float64(r.Distinct))
		m.AddNum(pre+".delay_samples", float64(r.DelaySamples))
		m.AddNum(pre+".delay_mean_ns", r.DelayMeanNs)
		m.AddNum(pre+".delay_min_ns", r.DelayMinNs)
		m.AddNum(pre+".delay_max_ns", r.DelayMaxNs)
	}
	for _, d := range duts {
		d.collect(m)
	}
	m.AddNum("trace.records", float64(traceRecords))
	m.AddText("trace.sha256", hex.EncodeToString(sum[:]))

	res := &RunResult{Name: sc.Name, Title: sc.Title, Metrics: m.All()}
	for _, c := range sc.Checks {
		cr := c.Eval(m)
		res.Checks = append(res.Checks, cr)
		if cr.Pass {
			res.Passed++
		} else {
			res.Failed++
		}
	}
	res.Pass = res.Failed == 0
	return res, nil
}

// buildDUT constructs one device instance of the given kind on its own
// logical process, with its reset/collect behaviour.
func buildDUT(p *testbed.Partition, kind string, i int, gbps float64) dut {
	name := fmt.Sprintf("%s%d", kind, i)
	sim := p.LP(name)
	switch kind {
	case DUTSink:
		s := testbed.NewSink(sim, name, gbps)
		return dut{
			iface: s.Iface,
			reset: s.Reset,
			collect: func(m *Metrics) {
				collectSink(m, fmt.Sprintf("sink%d", i), s)
			},
		}
	case DUTHHSink:
		h := NewHHSink(sim, name, gbps)
		return dut{
			iface: h.Sink.Iface,
			reset: h.Reset,
			collect: func(m *Metrics) {
				collectSink(m, fmt.Sprintf("sink%d", i), h.Sink)
				st := h.Stats()
				pre := fmt.Sprintf("hh%d", i)
				m.AddNum(pre+".flows", float64(st.Flows))
				m.AddNum(pre+".packets", float64(st.Packets))
				m.AddNum(pre+".top_count", float64(st.TopCount))
				m.AddNum(pre+".underestimates", float64(st.Underestimates))
				m.AddNum(pre+".overestimate_total", float64(st.OverestimateTotal))
				m.AddText(pre+".top_flow", st.TopFlow.String())
			},
		}
	case DUTReflector:
		r := testbed.NewReflector(sim, name, gbps)
		return dut{
			iface: r.Iface,
			collect: func(m *Metrics) {
				m.AddNum(fmt.Sprintf("reflector%d.reflected", i), float64(r.Reflected))
			},
		}
	case DUTScanTarget:
		t := testbed.NewScanTarget(sim, name, gbps)
		return dut{
			iface: t.Iface,
			collect: func(m *Metrics) {
				pre := fmt.Sprintf("scantarget%d", i)
				m.AddNum(pre+".probes_seen", float64(t.ProbesSeen))
				m.AddNum(pre+".synacks_sent", float64(t.SynAcksSent))
				m.AddNum(pre+".rsts_sent", float64(t.RstsSent))
			},
		}
	case DUTHTTPFarm:
		f := testbed.NewHTTPServerFarm(sim, name, gbps)
		return dut{
			iface: f.Iface,
			collect: func(m *Metrics) {
				pre := fmt.Sprintf("httpfarm%d", i)
				m.AddNum(pre+".syn_received", float64(f.SynReceived))
				m.AddNum(pre+".handshakes", float64(f.Handshakes))
				m.AddNum(pre+".requests", float64(f.Requests))
				m.AddNum(pre+".data_sent", float64(f.DataSent))
				m.AddNum(pre+".fin_received", float64(f.FinReceived))
				m.AddNum(pre+".closed", float64(f.Closed))
				m.AddNum(pre+".open_conns", float64(f.OpenConnections()))
			},
		}
	}
	panic(fmt.Sprintf("scenario: unknown DUT kind %q", kind)) // Validate rejects earlier
}

func collectSink(m *Metrics, pre string, s *testbed.Sink) {
	m.AddNum(pre+".rx_packets", float64(s.Packets))
	m.AddNum(pre+".rx_bytes", float64(s.Bytes))
	m.AddNum(pre+".gbps", s.ThroughputGbps())
	m.AddNum(pre+".pps", s.RatePps())
}
