package hypertester

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/core/htpr"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/stats"
	"github.com/hypertester/hypertester/internal/testbed"
)

const throughputTask = `
# Table 3: throughput testing
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 1, 1])
    .set([loop, length], [0, 64])
    .set(port, 0)
Q1 = query(T1).map(p -> (pkt_len)).reduce(func=sum)
Q2 = query().map(p -> (pkt_len)).reduce(func=sum)
`

func TestLineRateGeneration(t *testing.T) {
	// The headline capability: a single 100G port generates 64-byte
	// packets at line rate (Fig. 9a).
	ht := New(Config{Ports: []float64{100}, Seed: 1})
	if err := ht.LoadTaskSource("throughput", throughputTask); err != nil {
		t.Fatal(err)
	}
	sink := testbed.NewSink(ht.Sim, "sink", 100)
	testbed.Connect(ht.Sim, ht.Port(0), sink.Iface, 0)
	if err := ht.Start(); err != nil {
		t.Fatal(err)
	}
	// Let the accelerator fill (~10us), then measure 200us.
	ht.RunFor(20 * netsim.Microsecond)
	sink.Reset()
	q1Before, _ := ht.Report("Q1")
	ht.RunFor(200 * netsim.Microsecond)

	if g := sink.ThroughputGbps(); g < 97 || g > 101 {
		t.Fatalf("throughput = %.2f Gbps, want ~100 (line rate)", g)
	}
	// Every generated packet carries the trigger's values.
	var s netproto.Stack
	sinkOK := sink.Packets
	if sinkOK == 0 {
		t.Fatal("no packets")
	}
	sink.OnPacket = nil
	_ = s

	// Q1 (sent) and Q2 (received: nothing comes back) reports.
	q1, ok := ht.Report("Q1")
	if !ok || len(q1.Results) != 1 {
		t.Fatalf("Q1 report: %+v", q1)
	}
	if q1.Results[0].Value != q1.Matches*64 {
		t.Fatalf("Q1 sum = %d, want matches*64 = %d", q1.Results[0].Value, q1.Matches*64)
	}
	q2, _ := ht.Report("Q2")
	if q2.Matches != 0 {
		t.Fatalf("Q2 saw %d received packets, want 0", q2.Matches)
	}
	// Over the measurement window, Q1's count moved by what the sink saw
	// (minus in-flight tail).
	window := q1.Matches - q1Before.Matches
	diff := math.Abs(float64(window) - float64(sink.Packets))
	if diff > float64(window)/50 {
		t.Fatalf("Q1 window %d vs sink %d differ too much", window, sink.Packets)
	}
}

func TestRateControlAccuracy(t *testing.T) {
	// 1 Mpps rate control: inter-departure error must sit at the
	// template-arrival granularity (single-digit ns), an order below
	// MoonGen's (Fig. 11).
	ht := New(Config{Ports: []float64{100}, Seed: 2})
	err := ht.LoadTaskSource("rate", `
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 7, 7])
    .set(interval, 1us)
    .set(port, 0)
`)
	if err != nil {
		t.Fatal(err)
	}
	sink := testbed.NewSink(ht.Sim, "sink", 100)
	sink.RecordTimestamps = true
	testbed.Connect(ht.Sim, ht.Port(0), sink.Iface, 0)
	ht.Start()
	ht.RunFor(50 * netsim.Microsecond)
	sink.Reset()
	ht.RunFor(5 * netsim.Millisecond)

	pps := sink.RatePps()
	if math.Abs(pps-1e6) > 2e4 {
		t.Fatalf("rate = %.0f pps, want ~1e6", pps)
	}
	e := stats.InterDepartureErrors(sink.Timestamps, 1000)
	if e.MAE > 10 {
		t.Fatalf("MAE = %.2f ns, want single-digit (template-arrival granularity)", e.MAE)
	}
	if e.RMSE > 15 {
		t.Fatalf("RMSE = %.2f ns", e.RMSE)
	}
}

func TestEditorFieldSweeps(t *testing.T) {
	// range + list mods must appear in the generated packets, zipped by
	// packet ID.
	ht := New(Config{Ports: []float64{100}, Seed: 3})
	err := ht.LoadTaskSource("sweep", `
T1 = trigger()
    .set([dip, sip, proto], [9.9.9.9, 1.1.0.1, udp])
    .set(sport, range(1000, 1003, 1))
    .set(dport, [80, 81])
    .set(interval, 1us)
    .set(port, 0)
`)
	if err != nil {
		t.Fatal(err)
	}
	type combo struct{ sp, dp uint16 }
	seen := map[combo]int{}
	var order []combo
	sink := testbed.NewSink(ht.Sim, "sink", 100)
	var st netproto.Stack
	sink.OnPacket = func(pkt *netproto.Packet, at netsim.Time) {
		if err := st.Decode(pkt.Data); err == nil {
			c := combo{st.UDP.SrcPort, st.UDP.DstPort}
			seen[c]++
			if len(order) < 8 {
				order = append(order, c)
			}
		}
	}
	testbed.Connect(ht.Sim, ht.Port(0), sink.Iface, 0)
	ht.Start()
	ht.RunFor(100 * netsim.Microsecond)

	want := []combo{{1000, 80}, {1001, 81}, {1002, 80}, {1003, 81}}
	for _, c := range want {
		if seen[c] == 0 {
			t.Fatalf("combo %+v never generated; seen: %v", c, seen)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("saw %d combos, want 4 (zip semantics): %v", len(seen), seen)
	}
	// Sequence follows packet ID order.
	for i, c := range order[:4] {
		if c != want[(int(order[0].sp)-1000+i)%4] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestLoopBoundStopsGeneration(t *testing.T) {
	ht := New(Config{Ports: []float64{100}, Seed: 4})
	err := ht.LoadTaskSource("loop", `
T1 = trigger()
    .set([dip, sip, proto], [9.9.9.9, 1.1.0.1, udp])
    .set(dport, [1, 2, 3, 4, 5])
    .set(loop, 3)
    .set(interval, 500ns)
    .set(port, 0)
`)
	if err != nil {
		t.Fatal(err)
	}
	sink := testbed.NewSink(ht.Sim, "sink", 100)
	testbed.Connect(ht.Sim, ht.Port(0), sink.Iface, 0)
	ht.Start()
	ht.RunFor(2 * netsim.Millisecond)
	if sink.Packets != 15 {
		t.Fatalf("generated %d packets, want exactly 15 (3 loops x 5)", sink.Packets)
	}
}

func TestMultiPortGeneration(t *testing.T) {
	// Fig. 10a: adding ports multiplies aggregate throughput; each port
	// stays at line rate.
	ht := New(Config{Ports: []float64{100, 100, 100, 100}, Seed: 5})
	err := ht.LoadTaskSource("multi", `
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 1, 1])
    .set(port, [0, 1, 2, 3])
`)
	if err != nil {
		t.Fatal(err)
	}
	sinks := make([]*testbed.Sink, 4)
	for i := range sinks {
		sinks[i] = testbed.NewSink(ht.Sim, "sink", 100)
		testbed.Connect(ht.Sim, ht.Port(i), sinks[i].Iface, 0)
	}
	ht.Start()
	ht.RunFor(20 * netsim.Microsecond)
	for _, s := range sinks {
		s.Reset()
	}
	ht.RunFor(100 * netsim.Microsecond)
	total := 0.0
	for i, s := range sinks {
		g := s.ThroughputGbps()
		if g < 95 || g > 101 {
			t.Fatalf("port %d throughput = %.1f Gbps, want ~100", i, g)
		}
		total += g
	}
	if total < 380 {
		t.Fatalf("aggregate = %.0f Gbps, want ~400 (the testbed headline)", total)
	}
}

const webTask = `
# Table 4 (abridged): stateless web testing
T1 = trigger()
    .set([dip, dport, proto, flag, seq_no], [9.9.9.9, 80, tcp, SYN, 1])
    .set(sport, range(1024, 1087, 1))
    .set(sip, 1.1.0.1)
    .set(interval, 2us)
    .set(loop, 1)
    .set(port, 0)
Q1 = query().filter(tcp_flag == SYN+ACK)
T2 = trigger(Q1)
    .set([dip, sip, dport, sport], [Q1.sip, Q1.dip, Q1.sport, Q1.dport])
    .set([proto, flag], [tcp, ACK])
    .set([seq_no, ack_no], [Q1.ack_no, Q1.seq_no + 1])
Q5 = query().filter(tcp_flag == SYN+ACK).reduce(func=sum)
`

func TestWebTestingStatelessConnections(t *testing.T) {
	// End-to-end §5.4: SYN floods out, the server farm answers SYN+ACK,
	// Q1 triggers T2's ACKs statelessly, handshakes complete server-side.
	ht := New(Config{Ports: []float64{100}, Seed: 6})
	if err := ht.LoadTaskSource("web", webTask); err != nil {
		t.Fatal(err)
	}
	farm := testbed.NewHTTPServerFarm(ht.Sim, "farm", 100)
	testbed.Connect(ht.Sim, ht.Port(0), farm.Iface, 0)
	ht.Start()
	ht.RunFor(2 * netsim.Millisecond)

	if farm.SynReceived != 64 {
		t.Fatalf("farm saw %d SYNs, want 64", farm.SynReceived)
	}
	if farm.Handshakes != 64 {
		t.Fatalf("completed %d handshakes, want 64 (stateless ACKs must land)", farm.Handshakes)
	}
	// Q1 captured every SYN+ACK and triggered T2 for each.
	q1, _ := ht.Report("Q1")
	if q1.Matches != 64 {
		t.Fatalf("Q1 matches = %d, want 64", q1.Matches)
	}
	if ht.Sender.FiredCount(2) != 64 {
		t.Fatalf("T2 fired %d, want 64", ht.Sender.FiredCount(2))
	}
	// Q5's reduce counted the SYN+ACKs.
	q5, _ := ht.Report("Q5")
	if q5.Matches != 64 {
		t.Fatalf("Q5 matches = %d, want 64", q5.Matches)
	}
}

func TestDistinctQueryAccuracy(t *testing.T) {
	// An IP-scan-style task: distinct source IPs of responses, exact.
	ht := New(Config{Ports: []float64{100}, Seed: 7})
	err := ht.LoadTaskSource("scan", `
T1 = trigger()
    .set([sip, dport, sport, proto, flag], [1.1.0.1, 80, 1024, tcp, SYN])
    .set(dip, range(184549377, 184549632, 1))
    .set(interval, 200ns)
    .set(loop, 1)
    .set(port, 0)
Q1 = query().filter(tcp_flag == SYN+ACK).distinct(keys={ipv4.sip})
`)
	if err != nil {
		t.Fatal(err)
	}
	target := testbed.NewScanTarget(ht.Sim, "net", 100)
	target.LivePermille = 400
	testbed.Connect(ht.Sim, ht.Port(0), target.Iface, 0)
	ht.Start()
	ht.RunFor(2 * netsim.Millisecond)

	// Ground truth: how many of the probed addresses are live?
	live := 0
	for i := uint32(0); i < 256; i++ {
		if target.Live(netproto.IPv4Addr(184549377 + i)) {
			live++
		}
	}
	if live == 0 {
		t.Fatal("degenerate scan target")
	}
	q1, _ := ht.Report("Q1")
	if q1.Distinct != live {
		t.Fatalf("distinct = %d, want %d (exact, no false positives)", q1.Distinct, live)
	}
}

func TestTaskErrorsSurface(t *testing.T) {
	ht := New(Config{Ports: []float64{100}})
	if err := ht.LoadTaskSource("bad", `T1 = trigger().set(dport, 70000).set(port, 0)`); err == nil {
		t.Fatal("invalid task loaded")
	}
	if err := ht.Start(); err == nil {
		t.Fatal("start without a task succeeded")
	}
}

func TestGeneratedArtifacts(t *testing.T) {
	ht := New(Config{Ports: []float64{100}})
	if err := ht.LoadTaskSource("throughput", throughputTask); err != nil {
		t.Fatal(err)
	}
	if src := ht.GeneratedP4(); len(src) < 100 {
		t.Fatalf("generated P4 too small: %d bytes", len(src))
	}
	res := ht.Resources()
	if res.SALU <= 0 {
		t.Fatalf("resources: %+v", res)
	}
}

func TestReduceSumMatchesTraffic(t *testing.T) {
	// Reduce(sum of pkt_len) over received traffic equals what a
	// reflector bounces back.
	ht := New(Config{Ports: []float64{100}, Seed: 8})
	err := ht.LoadTaskSource("echo", `
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 5000, 6000])
    .set([interval, loop, length], [1us, 100, 128])
    .set(port, 0)
Q1 = query().map(p -> (pkt_len)).reduce(func=sum)
`)
	if err != nil {
		t.Fatal(err)
	}
	refl := testbed.NewReflector(ht.Sim, "refl", 100)
	testbed.Connect(ht.Sim, ht.Port(0), refl.Iface, 0)
	ht.Start()
	ht.RunFor(2 * netsim.Millisecond)

	q1, _ := ht.Report("Q1")
	if q1.Matches != 100 {
		t.Fatalf("received %d reflections, want 100", q1.Matches)
	}
	var total uint64
	for _, r := range q1.Results {
		total += r.Value
	}
	if total != 100*128 {
		t.Fatalf("reduce sum = %d, want %d", total, 100*128)
	}
	if ntapi.KindReduce != q1.Kind {
		t.Fatalf("kind = %v", q1.Kind)
	}
}

func TestRandomInterDepartureExponential(t *testing.T) {
	// §3.1 names "random inter-departure time" as a generation
	// requirement: exponential intervals give a Poisson probe stream
	// whose inter-departure mean and coefficient of variation (~1)
	// should both be observable at the sink.
	ht := New(Config{Ports: []float64{100}, Seed: 12})
	err := ht.LoadTaskSource("poisson", `
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 7, 7])
    .set(interval, random('E', 2000, 0))
    .set(port, 0)
`)
	if err != nil {
		t.Fatal(err)
	}
	sink := testbed.NewSink(ht.Sim, "sink", 100)
	sink.RecordTimestamps = true
	testbed.Connect(ht.Sim, ht.Port(0), sink.Iface, 0)
	ht.Start()
	ht.RunFor(50 * netsim.Microsecond)
	sink.Reset()
	ht.RunFor(20 * netsim.Millisecond)

	gaps := stats.Gaps(sink.Timestamps)
	if len(gaps) < 2000 {
		t.Fatalf("only %d gaps", len(gaps))
	}
	mean := stats.Mean(gaps)
	if mean < 1800 || mean > 2300 {
		t.Fatalf("mean inter-departure %.0fns, want ~2000", mean)
	}
	cv := stats.StdDev(gaps) / mean
	if cv < 0.8 || cv > 1.2 {
		t.Fatalf("coefficient of variation %.2f, want ~1 (exponential)", cv)
	}
}

func TestFixedIntervalHasLowCV(t *testing.T) {
	// Contrast with the exponential case: fixed intervals are nearly
	// deterministic (CV ~ 0).
	ht := New(Config{Ports: []float64{100}, Seed: 12})
	err := ht.LoadTaskSource("cbr", `
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 7, 7])
    .set(interval, 2us)
    .set(port, 0)
`)
	if err != nil {
		t.Fatal(err)
	}
	sink := testbed.NewSink(ht.Sim, "sink", 100)
	sink.RecordTimestamps = true
	testbed.Connect(ht.Sim, ht.Port(0), sink.Iface, 0)
	ht.Start()
	ht.RunFor(50 * netsim.Microsecond)
	sink.Reset()
	ht.RunFor(5 * netsim.Millisecond)
	gaps := stats.Gaps(sink.Timestamps)
	cv := stats.StdDev(gaps) / stats.Mean(gaps)
	if cv > 0.05 {
		t.Fatalf("CBR coefficient of variation %.3f, want ~0", cv)
	}
}

func TestICMPPingTask(t *testing.T) {
	// ICMP echo templates: ping probes bounce off a reflector and the
	// received query counts the echoes.
	ht := New(Config{Ports: []float64{100}, Seed: 13})
	err := ht.LoadTaskSource("ping", `
T1 = trigger()
    .set([dip, sip, proto], [9.9.9.9, 1.1.0.1, icmp])
    .set(icmp.type, 8)
    .set(icmp.seq, range(0, 999, 1))
    .set(interval, 1us)
    .set(loop, 1)
    .set(port, 0)
Q1 = query().filter(icmp.type == 8).reduce(func=count, keys={ipv4.sip})
`)
	if err != nil {
		t.Fatal(err)
	}
	refl := testbed.NewReflector(ht.Sim, "refl", 100)
	testbed.Connect(ht.Sim, ht.Port(0), refl.Iface, 0)
	ht.Start()
	ht.RunFor(5 * netsim.Millisecond)

	if refl.Reflected != 1000 {
		t.Fatalf("reflector saw %d pings, want 1000", refl.Reflected)
	}
	q1, _ := ht.Report("Q1")
	if q1.Matches != 1000 {
		t.Fatalf("received %d echoes, want 1000", q1.Matches)
	}
}

func TestLossyLinkMeasurement(t *testing.T) {
	// Loss measurement end to end: sent vs received reduce queries
	// disagree by the dropped packets.
	ht := New(Config{Ports: []float64{100}, Seed: 14})
	err := ht.LoadTaskSource("loss", `
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 7, 7])
    .set(interval, 500ns)
    .set(loop, 1)
    .set(ipv4.id, range(0, 4999, 1))
    .set(port, 0)
Q1 = query(T1).reduce(func=count)
Q2 = query().reduce(func=count)
`)
	if err != nil {
		t.Fatal(err)
	}
	refl := testbed.NewReflector(ht.Sim, "refl", 100)
	link := testbed.ConnectLossy(ht.Sim, ht.Port(0), refl.Iface, 0, 0.05, 9)
	ht.Start()
	ht.RunFor(10 * netsim.Millisecond)

	q1, _ := ht.Report("Q1")
	q2, _ := ht.Report("Q2")
	if q1.Matches != 5000 {
		t.Fatalf("sent %d, want 5000", q1.Matches)
	}
	if q2.Matches >= q1.Matches {
		t.Fatal("no loss observed over a 5% lossy link")
	}
	wantRecv := uint64(refl.Reflected) - (link.Dropped - (5000 - refl.Reflected))
	if q2.Matches != wantRecv {
		t.Fatalf("received %d, want %d (conservation)", q2.Matches, wantRecv)
	}
}

func TestLoopbackPortsExtendTemplateCapacity(t *testing.T) {
	// §6.1: configuring more recirculation paths linearly extends the
	// number of templates one task can hold.
	manyTriggers := func(n int) string {
		src := ""
		for i := 0; i < n; i++ {
			src += fmt.Sprintf(
				"T%d = trigger().set([dip, proto], [9.9.9.%d, udp]).set(length, 1500).set(port, 0)\n",
				i+1, i+1)
		}
		return src
	}
	over := manyTriggers(8) // AcceleratorCapacity(1500) = 5 per path
	ht1 := New(Config{Ports: []float64{100}, RecircPaths: 1})
	if err := ht1.LoadTaskSource("many", over); err == nil {
		t.Fatal("8 large templates accepted on one recirculation path")
	}
	ht2 := New(Config{Ports: []float64{100}, RecircPaths: 2})
	if err := ht2.LoadTaskSource("many", over); err != nil {
		t.Fatalf("2 paths should fit 8 templates: %v", err)
	}
}

func TestDelayQueryMeasuresConstantPath(t *testing.T) {
	// The delay() query (state-based delay testing, Fig. 18b): probes
	// bounce off a reflector and per-probe delays accumulate on-switch.
	ht := New(Config{Ports: []float64{100}, Seed: 15})
	err := ht.LoadTaskSource("delay", `
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 7, 7])
    .set(ipv4.id, range(0, 65535, 1))
    .set(interval, 2us)
    .set(port, 0)
Q1 = query().delay(keys={ipv4.id})
`)
	if err != nil {
		t.Fatal(err)
	}
	refl := testbed.NewReflector(ht.Sim, "refl", 100)
	refl.ExtraDelay = 10 * netsim.Microsecond
	testbed.Connect(ht.Sim, ht.Port(0), refl.Iface, 0)
	ht.Start()
	ht.RunFor(20 * netsim.Millisecond)

	q1, _ := ht.Report("Q1")
	if q1.DelaySamples < 5000 {
		t.Fatalf("only %d delay samples", q1.DelaySamples)
	}
	// The reflector adds 10us; the rest of the path is ~1-2us of pipeline
	// and wire time. The mean must clear the reflector delay and the
	// jitter must stay small.
	if q1.DelayMeanNs < 10000 || q1.DelayMeanNs > 14000 {
		t.Fatalf("mean delay %.0fns, want ~11-12us (10us reflector + path)", q1.DelayMeanNs)
	}
	if q1.DelayMaxNs-q1.DelayMinNs > 300 {
		t.Fatalf("delay spread %.0fns too wide for a constant path", q1.DelayMaxNs-q1.DelayMinNs)
	}
}

func TestVLANSweepTask(t *testing.T) {
	// Per-VLAN testing: the editor sweeps VLAN IDs across generated
	// packets; the DUT-side sink observes every VLAN exactly once per
	// stream pass.
	ht := New(Config{Ports: []float64{100}, Seed: 16})
	err := ht.LoadTaskSource("vlan", `
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 7, 7])
    .set(vlan.id, range(100, 131, 1))
    .set(length, 68)
    .set(interval, 1us)
    .set(loop, 2)
    .set(port, 0)
`)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint16]int{}
	sink := testbed.NewSink(ht.Sim, "sink", 100)
	var st netproto.Stack
	sink.OnPacket = func(pkt *netproto.Packet, at netsim.Time) {
		if err := st.Decode(pkt.Data); err == nil && st.Has(netproto.LayerVLAN) {
			seen[st.VLAN.VID]++
		}
	}
	testbed.Connect(ht.Sim, ht.Port(0), sink.Iface, 0)
	ht.Start()
	ht.RunFor(2 * netsim.Millisecond)

	if len(seen) != 32 {
		t.Fatalf("saw %d VLANs, want 32: %v", len(seen), seen)
	}
	for vid := uint16(100); vid < 132; vid++ {
		if seen[vid] != 2 {
			t.Fatalf("vlan %d seen %d times, want 2 (loop=2)", vid, seen[vid])
		}
	}
}

func TestPaperTestbedFig8(t *testing.T) {
	// The Fig. 8 topology end to end: the tester floods both DUT-facing
	// ports; the DUT forwards to a 40G and a 10G server. The slower
	// downstream links saturate (and the DUT tail-drops the excess),
	// demonstrating the testbed's speed hierarchy.
	ht := New(Config{Ports: []float64{100, 100}, Seed: 17})
	err := ht.LoadTaskSource("fig8", `
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 1, 1])
    .set(length, 256)
    .set(port, [0, 1])
`)
	if err != nil {
		t.Fatal(err)
	}
	tb := testbed.NewPaperTestbed(ht.Sim, ht.Switch, 17)
	ht.Start()
	ht.RunFor(30 * netsim.Microsecond)
	tb.Server1.Reset()
	tb.Server2.Reset()
	ht.RunFor(200 * netsim.Microsecond)

	if g := tb.Server1.ThroughputGbps(); g < 38 || g > 41 {
		t.Fatalf("server1 (40G link) got %.1f Gbps, want ~40", g)
	}
	if g := tb.Server2.ThroughputGbps(); g < 9.5 || g > 10.5 {
		t.Fatalf("server2 (10G link) got %.1f Gbps, want ~10", g)
	}
	// The DUT sheds the 100G->40G/10G overload at its egress queues.
	if tb.DUT.Port(2).TxDrops == 0 || tb.DUT.Port(3).TxDrops == 0 {
		t.Fatalf("DUT should tail-drop the overload: drops %d/%d",
			tb.DUT.Port(2).TxDrops, tb.DUT.Port(3).TxDrops)
	}
}

func TestDeterministicRuns(t *testing.T) {
	// The whole stack is deterministic: identical seeds produce
	// bit-identical reports and counters.
	run := func() (uint64, uint64, float64) {
		ht := New(Config{Ports: []float64{100}, Seed: 42})
		if err := ht.LoadTaskSource("det", `
T1 = trigger()
    .set([dip, sip, proto, dport], [9.9.9.9, 1.1.0.1, udp, 7])
    .set(sport, random('N', 30000, 2000, 16))
    .set(interval, random('E', 3000, 0))
    .set(port, 0)
Q1 = query(T1).reduce(func=count, keys={l4.sport})
`); err != nil {
			t.Fatal(err)
		}
		refl := testbed.NewReflector(ht.Sim, "refl", 100)
		testbed.Connect(ht.Sim, ht.Port(0), refl.Iface, 0)
		ht.Start()
		ht.RunFor(5 * netsim.Millisecond)
		q1, _ := ht.Report("Q1")
		var sum uint64
		for _, r := range q1.Results {
			sum += r.Value*uint64(len(r.Key)) + r.Key[0]
		}
		return q1.Matches, sum, float64(ht.Sender.FiredCount(1))
	}
	m1, s1, f1 := run()
	m2, s2, f2 := run()
	if m1 != m2 || s1 != s2 || f1 != f2 {
		t.Fatalf("non-deterministic: (%d,%d,%.0f) vs (%d,%d,%.0f)", m1, s1, f1, m2, s2, f2)
	}
	if m1 == 0 {
		t.Fatal("degenerate run")
	}
}

func TestMACSweepEditor(t *testing.T) {
	// 48-bit fields sweep too: rotate source MACs across packets.
	ht := New(Config{Ports: []float64{100}, Seed: 18})
	err := ht.LoadTaskSource("mac", `
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 7, 7])
    .set(eth.src, [1, 2, 3])
    .set(interval, 1us)
    .set(loop, 2)
    .set(port, 0)
`)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[netproto.MAC]int{}
	sink := testbed.NewSink(ht.Sim, "sink", 100)
	var st netproto.Stack
	sink.OnPacket = func(pkt *netproto.Packet, at netsim.Time) {
		if err := st.Decode(pkt.Data); err == nil {
			seen[st.Eth.Src]++
		}
	}
	testbed.Connect(ht.Sim, ht.Port(0), sink.Iface, 0)
	ht.Start()
	ht.RunFor(1 * netsim.Millisecond)
	if len(seen) != 3 {
		t.Fatalf("saw %d MACs, want 3: %v", len(seen), seen)
	}
	for mac, n := range seen {
		if n != 2 {
			t.Fatalf("mac %v seen %d times, want 2", mac, n)
		}
	}
}

func TestJitteryDUTDelayVariance(t *testing.T) {
	// A jittery DUT produces a delay distribution the delay() query's
	// min/max bracket reveals.
	ht := New(Config{Ports: []float64{100}, Seed: 19})
	err := ht.LoadTaskSource("jitter", `
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 7, 7])
    .set(ipv4.id, range(0, 65535, 1))
    .set(interval, 5us)
    .set(port, 0)
Q1 = query().delay(keys={ipv4.id})
`)
	if err != nil {
		t.Fatal(err)
	}
	refl := testbed.NewReflector(ht.Sim, "refl", 100)
	refl.ExtraDelay = 5 * netsim.Microsecond
	refl.ExtraJitter = 4 * netsim.Microsecond
	testbed.Connect(ht.Sim, ht.Port(0), refl.Iface, 0)
	ht.Start()
	ht.RunFor(20 * netsim.Millisecond)

	q1, _ := ht.Report("Q1")
	if q1.DelaySamples < 2000 {
		t.Fatalf("samples = %d", q1.DelaySamples)
	}
	spread := q1.DelayMaxNs - q1.DelayMinNs
	if spread < 3000 || spread > 4500 {
		t.Fatalf("delay spread %.0fns, want ~4000 (the DUT's jitter window)", spread)
	}
}

func TestMillionFlowReduceStress(t *testing.T) {
	// Scale check: a full pass over 2^20 distinct flows through the
	// generation + reduce pipeline stays exact.
	if testing.Short() {
		t.Skip("stress test")
	}
	ht := New(Config{Ports: []float64{100}, Seed: 20,
		Compiler: compiler.Options{ArraySize: 1 << 19}})
	err := ht.LoadTaskSource("stress", `
T1 = trigger()
    .set([sip, proto, dport, sport], [1.1.0.1, udp, 7, 7])
    .set(dip, range(167772160, 168820735, 1))
    .set(loop, 1)
    .set(port, 0)
Q1 = query(T1).reduce(func=count, keys={ipv4.dip})
`)
	if err != nil {
		t.Fatal(err)
	}
	sink := testbed.NewSink(ht.Sim, "sink", 100)
	testbed.Connect(ht.Sim, ht.Port(0), sink.Iface, 0)
	ht.Start()
	// 2^20 packets at 6.4ns = ~6.8ms of virtual time.
	ht.RunFor(10 * netsim.Millisecond)

	if sink.Packets != 1<<20 {
		t.Fatalf("generated %d packets, want %d", sink.Packets, 1<<20)
	}
	q1, _ := ht.Report("Q1")
	if q1.Matches != 1<<20 {
		t.Fatalf("Q1 matched %d", q1.Matches)
	}
	if len(q1.Results) != 1<<20 {
		t.Fatalf("distinct keys = %d, want %d", len(q1.Results), 1<<20)
	}
	for _, r := range q1.Results[:100] {
		if r.Value != 1 {
			t.Fatalf("key %v count %d, want 1", r.Key, r.Value)
		}
	}
}

func TestEvictionDigestsStayExactUnderPressure(t *testing.T) {
	// Force heavy counter-table pressure (tiny arrays) so evictions flood
	// the push-mode digest path; the collected report must stay exact
	// because backpressured messages wait on the data plane and the CPU
	// drains the channel at collection (§5.2's push mode end to end).
	ht := New(Config{Ports: []float64{100}, Seed: 22,
		Compiler: compiler.Options{ArraySize: 64}})
	err := ht.LoadTaskSource("pressure", `
T1 = trigger()
    .set([sip, proto, dport, sport], [1.1.0.1, udp, 7, 7])
    .set(dip, range(167772160, 167774207, 1))
    .set(loop, 3)
    .set(port, 0)
Q1 = query(T1).reduce(func=count, keys={ipv4.dip})
`)
	if err != nil {
		t.Fatal(err)
	}
	sink := testbed.NewSink(ht.Sim, "sink", 100)
	testbed.Connect(ht.Sim, ht.Port(0), sink.Iface, 0)
	ht.Start()
	ht.RunFor(2 * netsim.Millisecond)

	q1, _ := ht.Report("Q1")
	if len(q1.Results) != 2048 {
		t.Fatalf("distinct keys = %d, want 2048", len(q1.Results))
	}
	for _, r := range q1.Results {
		if r.Value != 3 {
			t.Fatalf("key %v count %d, want 3 (loop=3)", r.Key, r.Value)
		}
	}
	if ht.Switch.DigestsSent == 0 {
		t.Fatal("no digests travelled the channel; pressure path untested")
	}
	if ht.Switch.DigestDrops != 0 {
		t.Fatalf("digest drops %d despite backpressure", ht.Switch.DigestDrops)
	}
}

// TestReportsDeterministic runs the same overflowing task on two fresh
// testers: far more keys than the counter arrays hold, so most aggregates
// reach the switch CPU as eviction digests. The reports must be identical,
// result order included.
func TestReportsDeterministic(t *testing.T) {
	run := func() (*Tester, []htpr.Report) {
		ht := New(Config{Ports: []float64{100}, Seed: 22,
			Compiler: compiler.Options{ArraySize: 64}})
		err := ht.LoadTaskSource("pressure", `
T1 = trigger()
    .set([sip, proto, dport, sport], [1.1.0.1, udp, 7, 7])
    .set(dip, range(167772160, 167774207, 1))
    .set(loop, 3)
    .set(port, 0)
Q1 = query(T1).reduce(func=count, keys={ipv4.dip})
`)
		if err != nil {
			t.Fatal(err)
		}
		sink := testbed.NewSink(ht.Sim, "sink", 100)
		testbed.Connect(ht.Sim, ht.Port(0), sink.Iface, 0)
		ht.Start()
		ht.RunFor(2 * netsim.Millisecond)
		return ht, ht.Reports()
	}
	ht, a := run()
	_, b := run()
	if onChip := 2*64 + len(ht.Program.Queries[0].ExactKeys); len(a[0].Results) <= onChip || ht.Switch.DigestsSent == 0 {
		t.Fatalf("%d keys, %d digests: the task must leave keys held only by the CPU", len(a[0].Results), ht.Switch.DigestsSent)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical runs returned different reports")
	}
}
