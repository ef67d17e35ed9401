package asic

import (
	"testing"

	"github.com/hypertester/hypertester/internal/netproto"
)

// headerFrames builds a TCP SYN+ACK, a UDP datagram, an ICMP echo and a
// frame too short for an Ethernet header, in that order.
func headerFrames(t *testing.T) []*netproto.Packet {
	t.Helper()
	src, dst := netproto.MustIPv4("10.0.0.1"), netproto.MustIPv4("10.0.0.2")
	tcp, err := netproto.BuildTCP(netproto.TCPSpec{SrcIP: src, DstIP: dst, SrcPort: 443, DstPort: 5000,
		Seq: 7, Ack: 9, Flags: 0x12, Window: 1024})
	if err != nil {
		t.Fatal(err)
	}
	udp, err := netproto.BuildUDP(netproto.UDPSpec{SrcIP: dst, DstIP: src, SrcPort: 53, DstPort: 6000})
	if err != nil {
		t.Fatal(err)
	}
	icmp, err := netproto.BuildICMP(netproto.ICMPSpec{SrcIP: src, DstIP: dst, Type: 8, Ident: 3, Seq: 4})
	if err != nil {
		t.Fatal(err)
	}
	return []*netproto.Packet{{Data: tcp}, {Data: udp}, {Data: icmp}, {Data: tcp[:10]}}
}

// TestPooledPHVMatchesFresh reuses one pooled PHV for TCP → UDP → ICMP →
// runt frames: every field and layer must read as on a freshly parsed PHV,
// so a UDP frame after a SYN+ACK reads tcp.flag and tcp.sport as 0.
func TestPooledPHVMatchesFresh(t *testing.T) {
	_, sw := newTestSwitch(t, 1)
	var prev *PHV
	for i, pkt := range headerFrames(t) {
		pooled := sw.acquirePHV(pkt)
		if prev != nil && pooled != prev {
			t.Fatal("the pool did not hand back the released PHV")
		}
		fresh := NewPHV(pkt)
		for f := Field(1); f < numFields; f++ {
			if got, want := f.Get(pooled), f.Get(fresh); got != want {
				t.Errorf("frame %d: pooled %s = %d, fresh %d", i, f, got, want)
			}
		}
		for l := netproto.LayerEthernet; l <= netproto.LayerIPv6Ext; l++ {
			if pooled.Has(l) != fresh.Has(l) {
				t.Errorf("frame %d: pooled Has(%s) = %v, fresh %v", i, l, pooled.Has(l), fresh.Has(l))
			}
		}
		if i > 0 && (FieldTCPFlags.Get(pooled) != 0 || FieldTCPSrcPort.Get(pooled) != 0) {
			t.Errorf("frame %d: stale TCP header: flags %d sport %d", i, FieldTCPFlags.Get(pooled), FieldTCPSrcPort.Get(pooled))
		}
		sw.releasePHV(pooled)
		prev = pooled
	}
}

// TestPooledPHVParsesOnDemand checks that a pooled PHV reads metadata
// without parsing and parses on its first header access.
func TestPooledPHVParsesOnDemand(t *testing.T) {
	_, sw := newTestSwitch(t, 1)
	frames := headerFrames(t)
	sw.releasePHV(sw.acquirePHV(frames[1])) // the pool starts empty
	pkt := frames[0]
	pkt.Meta.TemplateID = 5
	p := sw.acquirePHV(pkt)
	if FieldTemplateID.Get(p) != 5 || FieldPktLen.Get(p) != uint64(pkt.Len()) {
		t.Fatal("metadata misread")
	}
	p.Deparse() // clean: nothing to write
	if p.parsed {
		t.Fatal("metadata reads and a clean deparse parsed the packet")
	}
	if FieldTCPFlags.Get(p) != 0x12 || !p.parsed {
		t.Fatal("a header read did not parse the packet")
	}
}
