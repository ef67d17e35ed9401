package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	hypertester "github.com/hypertester/hypertester"
	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/core/htpr"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/testbed"
)

// workload is one seeded testbed test: a generator of NTAPI source text, the
// topology it runs on, and the invariants its outputs must satisfy at any
// seed. Work sizes (frame size, port count, window, header space) are fixed;
// the seed only moves addresses, port offsets and the tester seed.
type workload struct {
	name     string
	workers  int // LP workers; 1 runs the sequential engine
	ports    int // tester front-panel ports, 100 Gbps each
	warmup   netsim.Duration
	window   netsim.Duration
	slices   int // the window runs as this many equal RunFor calls
	generate func(seed int64) program
	wire     func(p *testbed.Partition, ht *hypertester.Tester) *duts
	check    func(o *outcome, g program) []string
}

// program is one generated test: the source text the tester receives plus
// the generator's parameters, which the checks compare outputs against.
type program struct {
	source     string
	testerSeed int64
	sipBase    uint32 // first source address of the swept range
	dip        uint32
	sportBase  uint16
	dport      uint16
	space      int // distinct key tuples the task generates
}

// duts are the devices under test an iteration wired to the tester.
type duts struct {
	sinks []*testbed.Sink
	farm  *testbed.HTTPServerFarm
}

// counts are the per-layer work counts of one iteration. The simulator is
// deterministic, so every field must repeat exactly at a given seed.
type counts struct {
	HeaderSpace, ExactKeys, TruncatedQueries  uint64
	Events, Epochs, XLPMsgs, Stalls           uint64
	TxFrames, RxFrames, RecircPasses, TxDrops uint64
	ResultKeys, Digests, DigestDrops          uint64
	TemplatesFired, DUTFrames                 uint64
}

// outcome is everything an iteration's checks look at.
type outcome struct {
	reports                      []htpr.Report
	c                            counts
	portTx                       []uint64 // per tester port
	sinkRx                       []uint64 // per sink, in port order
	farmHandshakes, farmRequests uint64
}

// cable is the propagation delay of every testbed link.
const cable = testbed.DefaultCableDelay

// workloads stress different layers; BENCHMARK.json records why each exists.
var workloads = []*workload{
	{
		// At the smallest frame, per-packet cost dominates (pipeline,
		// timing wheel, egress query counting); the only workload on the
		// LP engine, so the only one that exercises LP synchronisation.
		name:    "linerate-4x100g",
		workers: 2, ports: 4,
		warmup: 20 * netsim.Microsecond, window: 400 * netsim.Microsecond, slices: 40,
		generate: genLinerate,
		wire:     wireSinks,
		check:    checkLinerate,
	},
	{
		// The timer-gated recirculation loop and query-triggered
		// templates dominate; the pipeline works on the receive side, not
		// on per-frame counting.
		name:    "web-stateful",
		workers: 1, ports: 1,
		warmup: 100 * netsim.Microsecond, window: 10 * netsim.Millisecond, slices: 40,
		generate: genWeb,
		wire:     wireFarm,
		check:    checkWeb,
	},
	{
		// The only workload where compiling dominates: header-space
		// enumeration of 5-field tuples and exact-key precomputation. Its
		// ~62k flows overflow the counter arrays, so evictions reach the
		// switch CPU as digests.
		name:    "flowcount-1m",
		workers: 1, ports: 1,
		warmup: 20 * netsim.Microsecond, window: 400 * netsim.Microsecond, slices: 40,
		generate: genFlowcount,
		wire:     wireSinks,
		check:    checkFlowcount,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// seeded returns the generator stream for a workload at a seed.
func seeded(name string, seed int64) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s/%d", name, seed)))
	return rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(h[:8]))))
}

// host draws a unicast address inside 10.0.0.0/8 whose last octet is
// neither 0 nor 255.
func host(r *rand.Rand) uint32 {
	return 10<<24 | uint32(r.Intn(1<<16))<<8 | uint32(1+r.Intn(254))
}

func ip(a uint32) string { return netproto.IPv4Addr(a).String() }

// genLinerate: one 64 B UDP template multicast to ports 0-3, its source
// address sweeping a /24, counted per source by a sent-traffic sum query.
func genLinerate(seed int64) program {
	r := seeded("linerate-4x100g", seed)
	g := program{testerSeed: r.Int63(), dip: host(r), sipBase: host(r) &^ 0xff,
		sportBase: uint16(1024 + r.Intn(60000)), dport: uint16(1024 + r.Intn(60000)), space: 256}
	g.source = fmt.Sprintf(`# 4x100G line-rate UDP with a per-source byte count
T1 = trigger()
    .set([dip, proto, dport, sport], [%s, udp, %d, %d])
    .set(sip, range(%d, %d, 1))
    .set([loop, length], [0, 64])
    .set(port, [0, 1, 2, 3])
Q1 = query(T1).map(p -> (pkt_len)).reduce(func=sum, keys={ipv4.sip})
`, ip(g.dip), g.dport, g.sportBase, g.sipBase, g.sipBase+255)
	return g
}

// genWeb: the stateless-connection web test (SYN, ACK + GET on SYN+ACK,
// FIN after five data packets, ACK on FIN+ACK) opening 1024 connections
// 10 us apart.
func genWeb(seed int64) program {
	r := seeded("web-stateful", seed)
	g := program{testerSeed: r.Int63(), dip: host(r), sipBase: host(r),
		sportBase: uint16(1024 + r.Intn(60000)), dport: 80}
	g.source = fmt.Sprintf(`# Web testing with stateless connections
T1 = trigger()
    .set([dip, dport, proto, flag, seq_no], [%s, %d, tcp, SYN, 1])
    .set(sip, %s)
    .set(sport, range(%d, %d, 1))
    .set(interval, 10us)
    .set(loop, 1)
    .set(port, 0)
Q1 = query().filter(tcp_flag == SYN+ACK)
T2 = trigger(Q1)
    .set([dip, sip, dport, sport], [Q1.sip, Q1.dip, Q1.sport, Q1.dport])
    .set([proto, flag], [tcp, ACK])
    .set([seq_no, ack_no], [Q1.ack_no, Q1.seq_no + 1])
Q2 = query().filter(tcp_flag == SYN+ACK)
T3 = trigger(Q2)
    .set([dip, sip, dport, sport], [Q2.sip, Q2.dip, Q2.sport, Q2.dport])
    .set([proto, flag], [tcp, PSH+ACK])
    .set([seq_no, ack_no], [Q2.ack_no, Q2.seq_no + 1])
    .set(length, 78)
    .set(payload, "GET index.html")
Q3 = query().filter(tcp_flag == PSH+ACK).reduce(func=count).filter(count >= 5)
T5 = trigger(Q3)
    .set([dip, sip, dport, sport], [Q3.sip, Q3.dip, Q3.sport, Q3.dport])
    .set([proto, flag], [tcp, FIN])
    .set([seq_no, ack_no], [Q3.ack_no, Q3.seq_no + 1])
Q4 = query().filter(tcp_flag == FIN+ACK)
T6 = trigger(Q4)
    .set([dip, sip, dport, sport], [Q4.sip, Q4.dip, Q4.sport, Q4.dport])
    .set([proto, flag], [tcp, ACK])
    .set([seq_no, ack_no], [Q4.ack_no, Q4.seq_no + 1])
Q5 = query().filter(tcp_flag == SYN+ACK).reduce(func=sum)
`, ip(g.dip), g.dport, ip(g.sipBase), g.sportBase, int(g.sportBase)+1023)
	return g
}

// Flow-count sweep sizes: the source address covers a /16 and the source
// port 15 values. The lengths are coprime, so the 5-tuple header space is
// their product.
const (
	flowSips   = 1 << 16
	flowSports = 15
	flowSpace  = flowSips * flowSports // 983,040
)

// genFlowcount: a TCP SYN sweep over flowSpace distinct 5-tuples, counted
// per 5-tuple on sent traffic.
func genFlowcount(seed int64) program {
	r := seeded("flowcount-1m", seed)
	g := program{testerSeed: r.Int63(), dip: host(r), sipBase: host(r) &^ 0xffff,
		sportBase: uint16(1024 + r.Intn(60000)), dport: 80, space: flowSpace}
	g.source = fmt.Sprintf(`# Per-flow SYN counting over a /16 x 15-port sweep
T1 = trigger()
    .set([dip, dport, proto, flag], [%s, %d, tcp, SYN])
    .set(sip, range(%d, %d, 1))
    .set(sport, range(%d, %d, 1))
    .set(port, 0)
Q1 = query(T1).reduce(func=count)
`, ip(g.dip), g.dport, g.sipBase, g.sipBase+flowSips-1, g.sportBase, int(g.sportBase)+flowSports-1)
	return g
}

// wireSinks puts a counting sink behind every tester port, each sink on
// its own logical process.
func wireSinks(p *testbed.Partition, ht *hypertester.Tester) *duts {
	d := &duts{}
	for i := 0; i < ht.Switch.NumPorts(); i++ {
		name := fmt.Sprintf("sink%d", i)
		s := testbed.NewSink(p.LP(name), name, ht.Port(i).Gbps)
		p.Connect(ht.Port(i), s.Iface, cable)
		d.sinks = append(d.sinks, s)
	}
	return d
}

// wireFarm puts an HTTP server farm serving five-packet pages behind port 0.
func wireFarm(p *testbed.Partition, ht *hypertester.Tester) *duts {
	f := testbed.NewHTTPServerFarm(p.LP("farm"), "farm", ht.Port(0).Gbps)
	f.ResponsePackets = 5
	p.Connect(ht.Port(0), f.Iface, cable)
	return &duts{farm: f}
}

// collect reads the iteration's outputs once the reports are in.
func collect(p *testbed.Partition, ht *hypertester.Tester, d *duts, reports []htpr.Report) *outcome {
	o := &outcome{reports: reports}
	c := &o.c
	for _, q := range ht.Program.Queries {
		if q.Kind != ntapi.KindReduce && q.Kind != ntapi.KindDistinct {
			continue
		}
		c.HeaderSpace += uint64(q.HeaderSpaceSize)
		c.ExactKeys += uint64(len(q.ExactKeys))
		// The compiler skips exact-key precomputation, leaving ExactKeys
		// nil, only when enumeration hit its cap.
		if q.ExactKeys == nil {
			c.TruncatedQueries++
		}
	}
	if eng := p.Engine(); eng != nil {
		st := eng.Stats()
		c.Epochs = st.Epochs
		for _, lp := range st.LPs {
			c.Events += lp.Executed
			c.XLPMsgs += lp.Sent
			c.Stalls += lp.Stalls
		}
	} else {
		c.Events = ht.Sim.Executed
	}
	for i := 0; i < ht.Switch.NumPorts(); i++ {
		pt := ht.Port(i)
		o.portTx = append(o.portTx, pt.TxPackets)
		c.TxFrames += pt.TxPackets
		c.RxFrames += pt.RxPackets
		c.TxDrops += pt.TxDrops
	}
	for i := 0; i < ht.Switch.RecircPaths(); i++ {
		pt := ht.Port(asic.RecircPortBase + i)
		c.RecircPasses += pt.TxPackets
		c.TxDrops += pt.TxDrops
	}
	for _, r := range reports {
		c.ResultKeys += uint64(len(r.Results))
	}
	c.Digests = ht.Switch.DigestsSent
	c.DigestDrops = ht.Switch.DigestDrops
	for _, t := range ht.Program.Templates {
		c.TemplatesFired += ht.Sender.FiredCount(t.ID)
	}
	for _, s := range d.sinks {
		o.sinkRx = append(o.sinkRx, s.Packets)
		c.DUTFrames += s.Packets
	}
	if f := d.farm; f != nil {
		o.farmHandshakes, o.farmRequests = f.Handshakes, f.Requests
		c.DUTFrames += f.Handshakes + f.Requests
	}
	return o
}

// digest hashes the simulated outputs of an iteration: the reports (per-key
// results in key order), the tester's and DUTs' frame counters and the
// compiler's counts. Engine bookkeeping (events, epochs, cross-LP messages)
// is left out, so runs on the sequential and LP engines compare equal.
func (o *outcome) digest() [32]byte {
	h := sha256.New()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.BigEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	for _, r := range o.reports {
		h.Write([]byte(r.Query + "/" + string(r.Kind) + "/"))
		put(r.Matches, r.Bytes, uint64(r.Distinct), r.DelaySamples)
		res := append([]htpr.Result(nil), r.Results...)
		sort.Slice(res, func(i, j int) bool { return lessKey(res[i].Key, res[j].Key) })
		for _, x := range res {
			put(uint64(len(x.Key)))
			put(x.Key...)
			put(x.Value)
		}
	}
	c := o.c
	put(c.HeaderSpace, c.ExactKeys, c.TruncatedQueries, c.TxFrames, c.RxFrames, c.RecircPasses, c.TxDrops,
		c.ResultKeys, c.Digests, c.DigestDrops, c.TemplatesFired, c.DUTFrames, o.farmHandshakes, o.farmRequests)
	put(o.portTx...)
	put(o.sinkRx...)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// reference is what every iteration at one seed must reproduce: the first
// iteration's output digest and per-layer counts.
type reference struct {
	digest [32]byte
	c      counts
}

func (o *outcome) reference() reference { return reference{o.digest(), o.c} }

// check reports how an outcome departs from the reference.
func (r reference) check(o *outcome) []string {
	var bad []string
	if o.digest() != r.digest {
		bad = append(bad, "outputs differ from the first iteration at this seed")
	}
	if o.c != r.c {
		bad = append(bad, fmt.Sprintf("per-layer counts %+v differ from the first iteration's %+v", o.c, r.c))
	}
	return bad
}

func lessKey(a, b []uint64) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func (o *outcome) report(name string) (htpr.Report, bool) {
	for _, r := range o.reports {
		if r.Query == name {
			return r, true
		}
	}
	return htpr.Report{}, false
}

// inflight64 bounds how many 64 B frames a 100G port can have on a cable:
// those whose serialization ended less than one propagation delay ago, plus
// one for the boundary.
var inflight64 = uint64(float64(cable.Nanoseconds())/netproto.WireTimeNs(64, 100)) + 1

// checkLinerate: Q1 sums 64 B frames, so its bytes are 64 x its matches and
// its per-source values add up to its bytes; every sink has received what
// its port sent, less what is still on the cable.
func checkLinerate(o *outcome, g program) []string {
	var bad []string
	q1, ok := o.report("Q1")
	if !ok || q1.Matches == 0 {
		return []string{"Q1 missing or empty"}
	}
	if q1.Bytes != 64*q1.Matches {
		bad = append(bad, fmt.Sprintf("Q1 bytes %d != 64 x matches %d", q1.Bytes, q1.Matches))
	}
	var sum uint64
	for _, r := range q1.Results {
		sum += r.Value
		if len(r.Key) != 1 || r.Key[0]-uint64(g.sipBase) >= uint64(g.space) {
			bad = append(bad, fmt.Sprintf("Q1 key %v outside the generated /24", r.Key))
			break
		}
	}
	if sum != q1.Bytes {
		bad = append(bad, fmt.Sprintf("Q1 per-source sums %d != bytes %d", sum, q1.Bytes))
	}
	if len(o.sinkRx) != len(o.portTx) {
		return append(bad, "sink count differs from port count")
	}
	for i, tx := range o.portTx {
		if rx := o.sinkRx[i]; rx > tx || tx-rx > inflight64 {
			bad = append(bad, fmt.Sprintf("port %d: sink rx %d vs port tx %d (in-flight margin %d)", i, rx, tx, inflight64))
		}
	}
	return bad
}

// webInflight bounds the connections in one lifecycle step at a window
// edge: SYNs leave 10 us apart and a round trip takes a few microseconds,
// so at most one connection sits between two steps, plus one for the
// boundary.
const webInflight = 2

// checkWeb: every completed handshake led to a request, and every SYN+ACK
// the tester saw completed a handshake, up to what is still in flight.
func checkWeb(o *outcome, _ program) []string {
	var bad []string
	q1, ok := o.report("Q1")
	if !ok {
		return []string{"Q1 missing"}
	}
	hs, req := o.farmHandshakes, o.farmRequests
	if hs == 0 {
		bad = append(bad, "no handshakes completed")
	}
	if req > hs || hs-req > webInflight {
		bad = append(bad, fmt.Sprintf("farm requests %d vs handshakes %d", req, hs))
	}
	if hs > q1.Matches || q1.Matches-hs > webInflight {
		bad = append(bad, fmt.Sprintf("tester SYN+ACK matches %d vs farm handshakes %d", q1.Matches, hs))
	}
	return bad
}

// checkFlowcount: the per-flow counts add up to the frames Q1 matched, no
// key repeats, every key lies in the generated space, and the compiler
// enumerated that whole space (a cap on enumeration would silently skip the
// exact-key precomputation this workload exists to exercise).
func checkFlowcount(o *outcome, g program) []string {
	var bad []string
	q1, ok := o.report("Q1")
	if !ok || q1.Matches == 0 {
		return []string{"Q1 missing or empty"}
	}
	if o.c.HeaderSpace != uint64(g.space) {
		bad = append(bad, fmt.Sprintf("compiler header space %d != generated %d", o.c.HeaderSpace, g.space))
	}
	if o.c.TruncatedQueries != 0 {
		bad = append(bad, fmt.Sprintf("%d truncated queries", o.c.TruncatedQueries))
	}
	var sum uint64
	seen := make(map[[5]uint64]struct{}, len(q1.Results))
	for _, r := range q1.Results {
		sum += r.Value
		if len(r.Key) != 5 {
			bad = append(bad, fmt.Sprintf("key %v is not a 5-tuple", r.Key))
			break
		}
		k := [5]uint64(r.Key)
		seen[k] = struct{}{}
		// Key order: sip, dip, proto, sport, dport.
		if k[0]-uint64(g.sipBase) >= flowSips || k[1] != uint64(g.dip) || k[2] != 6 ||
			k[3]-uint64(g.sportBase) >= flowSports || k[4] != uint64(g.dport) {
			bad = append(bad, fmt.Sprintf("key %v outside the generated space", r.Key))
			break
		}
	}
	if sum != q1.Matches {
		bad = append(bad, fmt.Sprintf("per-flow counts sum to %d, Q1 matched %d", sum, q1.Matches))
	}
	if len(seen) != len(q1.Results) {
		bad = append(bad, fmt.Sprintf("%d distinct keys among %d results", len(seen), len(q1.Results)))
	}
	return bad
}
