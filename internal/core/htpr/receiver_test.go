package htpr

import (
	"bytes"
	"testing"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/raceflag"
)

func compileTask(t *testing.T, src string) *compiler.Program {
	t.Helper()
	task, err := ntapi.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(task, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func tcpPHV(t *testing.T, sip netproto.IPv4Addr, sport uint16, flags uint8, inPort int) *asic.PHV {
	t.Helper()
	raw, err := netproto.BuildTCP(netproto.TCPSpec{
		SrcIP: sip, DstIP: netproto.MustIPv4("1.1.0.1"),
		SrcPort: sport, DstPort: 1024, Flags: flags, FrameLen: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	pkt := &netproto.Packet{Data: raw}
	pkt.Meta.InPort = inPort
	return asic.NewPHV(pkt)
}

func TestReceiverFiltersAndCounts(t *testing.T) {
	prog := compileTask(t, `
T1 = trigger().set([dip, proto, flag], [9.9.9.9, tcp, SYN]).set(port, 0)
Q1 = query().filter(tcp_flag == SYN+ACK)
`)
	r := NewReceiver(prog)
	proc := r.IngressProcessor()
	proc.Process(tcpPHV(t, 2, 80, netproto.TCPSyn|netproto.TCPAck, 0))
	proc.Process(tcpPHV(t, 2, 80, netproto.TCPRst, 0))
	st := r.State(1)
	if st.Matches != 1 {
		t.Fatalf("matches = %d, want 1 (RST filtered out)", st.Matches)
	}
	if st.MatchedBytes != 64 {
		t.Fatalf("bytes = %d", st.MatchedBytes)
	}
}

func TestReceiverPortFilter(t *testing.T) {
	prog := compileTask(t, `
T1 = trigger().set([dip, proto], [9.9.9.9, tcp]).set(port, 0)
Q1 = query().port(2).filter(tcp_flag == SYN)
`)
	r := NewReceiver(prog)
	proc := r.IngressProcessor()
	proc.Process(tcpPHV(t, 2, 80, netproto.TCPSyn, 1)) // wrong port
	proc.Process(tcpPHV(t, 2, 80, netproto.TCPSyn, 2)) // right port
	if got := r.State(1).Matches; got != 1 {
		t.Fatalf("matches = %d, want 1", got)
	}
}

func TestReceiverTemplatePacketsDrainNotCount(t *testing.T) {
	prog := compileTask(t, `
T1 = trigger().set([dip, proto], [9.9.9.9, tcp]).set(sport, range(1, 1024, 1)).set(port, 0)
Q1 = query().reduce(func=count, keys={ipv4.sip})
`)
	r := NewReceiver(prog)
	proc := r.IngressProcessor()
	// A recirculating template packet must not be counted as received
	// traffic; it drains the KV FIFO instead.
	phv := tcpPHV(t, 2, 80, netproto.TCPSyn, 0)
	phv.Meta.TemplateID = 1
	proc.Process(phv)
	if got := r.State(1).Matches; got != 0 {
		t.Fatalf("template packet counted as received traffic: %d", got)
	}
}

func TestReceiverEgressQueryScopedToTemplate(t *testing.T) {
	prog := compileTask(t, `
T1 = trigger().set([dip, proto], [9.9.9.1, tcp]).set(port, 0)
T2 = trigger().set([dip, proto], [9.9.9.2, tcp]).set(port, 0)
Q1 = query(T2).reduce(func=count)
`)
	r := NewReceiver(prog)
	proc := r.EgressProcessor()

	mk := func(tid, rid int) *asic.PHV {
		phv := tcpPHV(t, 2, 80, netproto.TCPSyn, 0)
		phv.Meta.TemplateID = tid
		phv.Meta.ReplicaID = rid
		return phv
	}
	proc.Process(mk(1, 1)) // other template's replica
	proc.Process(mk(2, 0)) // T2's loop continuation: not sent traffic
	proc.Process(mk(2, 1)) // T2's replica: counts
	proc.Process(mk(0, 0)) // not a template at all
	if got := r.State(1).Matches; got != 1 {
		t.Fatalf("egress query matched %d, want 1", got)
	}
}

func TestReceiverReducePostFilterGatesTrigger(t *testing.T) {
	prog := compileTask(t, `
T1 = trigger().set([dip, proto], [9.9.9.9, tcp]).set(port, 0)
Q1 = query().filter(tcp_flag == ACK).reduce(func=count).filter(count >= 3)
T2 = trigger(Q1).set([dip, flag], [Q1.sip, FIN])
`)
	r := NewReceiver(prog)
	proc := r.IngressProcessor()
	fifo := r.TriggerFIFO(1)
	if fifo == nil {
		t.Fatal("no trigger FIFO")
	}
	for i := 0; i < 5; i++ {
		proc.Process(tcpPHV(t, 2, 80, netproto.TCPAck, 0))
	}
	// Counts 1,2 gated; 3,4,5 pass the post filter.
	if got := fifo.Len(); got != 3 {
		t.Fatalf("records pushed = %d, want 3 (count >= 3)", got)
	}
	if r.State(1).RecordsPushed != 3 {
		t.Fatalf("RecordsPushed = %d", r.State(1).RecordsPushed)
	}
}

func TestReceiverCollectReports(t *testing.T) {
	prog := compileTask(t, `
T1 = trigger().set([dip, proto], [9.9.9.9, tcp]).set(port, 0)
Q1 = query().filter(tcp_flag == SYN).distinct(keys={ipv4.sip})
Q2 = query().filter(tcp_flag == SYN)
`)
	r := NewReceiver(prog)
	proc := r.IngressProcessor()
	for i := 0; i < 10; i++ {
		proc.Process(tcpPHV(t, netproto.IPv4Addr(i%4), 80, netproto.TCPSyn, 0))
	}
	reps := r.Collect()
	if len(reps) != 2 {
		t.Fatalf("reports = %d", len(reps))
	}
	if reps[0].Query != "Q1" || reps[0].Distinct != 4 {
		t.Fatalf("Q1 report: %+v", reps[0])
	}
	if reps[1].Query != "Q2" || reps[1].Matches != 10 || reps[1].Results != nil {
		t.Fatalf("Q2 report: %+v", reps[1])
	}
}

func TestSweepIdleEvictsOnlyStale(t *testing.T) {
	ct := NewCounterTable(testPlan(ntapi.KindReduce, ntapi.AggCount, 1<<8, 16))
	// Ten keys once; then keep touching the first three.
	for k := uint64(0); k < 10; k++ {
		ct.Update([]uint64{k}, 1)
	}
	for pass := 0; pass < 20; pass++ {
		for k := uint64(0); k < 3; k++ {
			ct.Update([]uint64{k}, 1)
		}
	}
	evicted := ct.SweepIdle(30)
	if evicted != 7 {
		t.Fatalf("evicted %d idle entries, want 7", evicted)
	}
	if ct.Unattributed != 0 {
		t.Fatalf("unattributed evictions: %d", ct.Unattributed)
	}
	// Totals preserved across eviction.
	totals := map[uint64]uint64{}
	for _, r := range ct.Collect() {
		totals[r.Key[0]] = r.Value
	}
	for k := uint64(0); k < 10; k++ {
		want := uint64(1)
		if k < 3 {
			want = 21
		}
		if totals[k] != want {
			t.Fatalf("key %d total %d, want %d", k, totals[k], want)
		}
	}
	// Swept cells are reusable.
	ct.Update([]uint64{99}, 1)
	if ct.SweepIdle(1<<30) != 0 {
		// nothing else is stale under a huge age bound
	}
}

func TestSweepIdleThenContinueCounting(t *testing.T) {
	ct := NewCounterTable(testPlan(ntapi.KindReduce, ntapi.AggCount, 1<<6, 16))
	ct.Update([]uint64{5}, 1)
	for i := 0; i < 100; i++ {
		ct.Update([]uint64{uint64(1000 + i)}, 1)
	}
	ct.SweepIdle(50) // key 5 goes to the CPU
	ct.Update([]uint64{5}, 1)
	ct.Update([]uint64{5}, 1)
	for _, r := range ct.Collect() {
		if r.Key[0] == 5 && r.Value != 3 {
			t.Fatalf("key 5 total %d, want 3 (1 evicted + 2 fresh)", r.Value)
		}
	}
}

// TestDigestBufferLifecycle pins the pooled digest-buffer contract: a
// buffer handed to a packet's digest slot stays live — untouched by later
// evictions and attachments — until the ASIC's DigestFree consumption
// callback returns it, and only then is its storage reused. (An earlier
// scheme recycled the buffer at the *next* attachment, corrupting a message
// whose emission had not happened yet.)
func TestDigestBufferLifecycle(t *testing.T) {
	prog := compileTask(t, `
T1 = trigger().set([dip, proto], [9.9.9.9, tcp]).set(sport, range(1, 1024, 1)).set(port, 0)
Q1 = query().reduce(func=count, keys={ipv4.sip})
`)
	r := NewReceiver(prog)
	ct := r.State(1).Table
	evict := func(k uint64) {
		key := []uint64{k}
		ct.evict(ct.ref(key, compiler.EncodeKey(key)), 1)
	}

	evict(11)
	evict(22)
	p1 := tcpPHV(t, 2, 80, netproto.TCPSyn, 0)
	r.attachDigest(p1)
	if p1.DigestData == nil || p1.DigestFree == nil {
		t.Fatal("attachDigest did not install buffer and consumption callback")
	}
	msg1 := append([]byte(nil), p1.DigestData...)

	// A second attachment while the first is still in flight must not
	// recycle the first buffer.
	p2 := tcpPHV(t, 3, 80, netproto.TCPSyn, 0)
	r.attachDigest(p2)
	if n := len(ct.digestFree); n != 0 {
		t.Fatalf("free list holds %d buffers while both attachments are in flight", n)
	}
	// A fresh eviction must not overwrite the live attachment either.
	evict(33)
	if !bytes.Equal(p1.DigestData, msg1) {
		t.Fatal("eviction encoded into a buffer still attached to a packet")
	}

	// Consumption (what asic.Switch.takeDigest does after copying the
	// message onto the digest channel) returns the buffer for reuse.
	buf := p1.DigestData
	p1.DigestFree(p1.DigestData)
	p1.DigestData, p1.DigestFree = nil, nil
	if n := len(ct.digestFree); n != 1 {
		t.Fatalf("free list holds %d buffers after consumption, want 1", n)
	}
	p3 := tcpPHV(t, 4, 80, netproto.TCPSyn, 0)
	r.attachDigest(p3) // 33's message
	if len(p3.DigestData) == 0 || &p3.DigestData[0] != &buf[0] {
		t.Fatal("consumed buffer storage was not reused by the next message")
	}
}

// TestReceiverPacketPathZeroAllocs pins the receiver's per-packet contract:
// a matched packet whose key is already placed, with the trigger record it
// pushes, and a template pass that drains a non-empty KV FIFO allocate
// nothing. The key tuple and the record are built in per-query scratch.
func TestReceiverPacketPathZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; the contract holds in non-race builds")
	}
	prog := compileTask(t, `
T1 = trigger().set([dip, proto], [9.9.9.9, tcp]).set(port, 0)
Q1 = query().filter(tcp_flag == SYN).reduce(func=count, keys={ipv4.sip}).filter(count >= 1)
T2 = trigger(Q1).set([dip, flag], [Q1.sip, FIN])
`)
	r := NewReceiver(prog)
	proc := r.IngressProcessor()
	st := r.State(1)
	ct := st.Table
	matched := tcpPHV(t, 2, 80, netproto.TCPSyn, 0)
	proc.Process(matched) // places key {2} in array 1
	// Queue the records Update leaves for a key that found both candidate
	// cells taken and has been placed since: each drain merges one.
	idx1, _, d := compiler.CuckooSlots(compiler.EncodeKey([]uint64{2}), ct.plan.ArraySize, ct.plan.DigestBits, ct.h1, ct.hd, ct.halt)
	for ct.kvFIFO.Push([]uint64{uint64(idx1), uint64(d), 1}) {
	}
	template := tcpPHV(t, 2, 80, netproto.TCPSyn, 0)
	template.Meta.TemplateID = 1
	const runs = 1000
	if avg := testing.AllocsPerRun(runs, func() {
		proc.Process(matched)
		proc.Process(template)
	}); avg != 0 {
		t.Errorf("packet path allocates %v allocs/op, want 0", avg)
	}
	if st.RecordsPushed < runs || ct.FIFODrains < runs || ct.kvFIFO.Len() == 0 || ct.FIFOPushes != 0 {
		t.Fatalf("records pushed %d, KV drains %d, KV FIFO left %d, KV pushes %d: the paths were not exercised",
			st.RecordsPushed, ct.FIFODrains, ct.kvFIFO.Len(), ct.FIFOPushes)
	}
}
