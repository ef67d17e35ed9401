package asic

import (
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
)

// PHV is the packet header vector: the parsed representation of a packet
// plus intrinsic metadata, carried through the match-action pipelines.
// The pipeline may read and write header fields and metadata but — like the
// hardware it models — never the payload bytes.
type PHV struct {
	// Pkt is the underlying wire packet. Its Data is only rewritten by
	// the deparser after the egress pipeline.
	Pkt *netproto.Packet

	// stack holds the parsed headers once parsed is set; read them
	// through Headers.
	stack  netproto.Stack
	parsed bool

	// FrameLen is the frame length in bytes; the pipeline cannot change
	// it (§5.3 motivates the trigger FIFO with exactly this restriction).
	FrameLen int

	// Meta mirrors the packet's simulation metadata at parse time.
	Meta netproto.Meta

	// Intrinsic egress controls set by the pipeline.
	EgressPort  int  // unicast destination; -1 means unset
	McastGroup  int  // multicast group ID; 0 means none
	Drop        bool // discard at end of pipeline
	Recirculate bool // send back through the recirculation path

	// DigestData, when non-nil, is emitted to the switch CPU through the
	// digest engine at end of ingress (generate_digest).
	DigestData []byte

	// DigestFree, when non-nil, is the consumption callback for DigestData:
	// the switch invokes it exactly once with the attached buffer, either
	// after the digest engine has copied it onto the channel or when the
	// PHV is released with the attachment unconsumed. Producers that pool
	// their digest buffers set it alongside DigestData and recycle in the
	// callback — never by inferring consumption from later pipeline passes.
	DigestFree func([]byte)

	// Dirty records that a header field changed so the deparser knows to
	// re-serialize headers and fix checksums.
	Dirty bool

	// Scratch is pipeline scratch metadata (temporary PHV containers),
	// reset for every packet.
	Scratch [8]uint64

	// Trace, when non-nil, receives per-stage lifecycle records (table
	// hits, deparse) emitted during this pipeline pass; TraceAt is the
	// pass's virtual instant. Set by the switch after acquiring the PHV —
	// every stage of one pass runs at a single instant, so emitters use
	// TraceAt instead of re-reading the clock.
	Trace   *obs.Trace
	TraceAt netsim.Time
}

// NewPHV parses pkt into a fresh PHV. Parse errors leave the successfully
// decoded outer layers available, as the hardware parser would.
func NewPHV(pkt *netproto.Packet) *PHV {
	p := &PHV{}
	p.init(pkt)
	p.parse()
	return p
}

// init binds p to pkt, resetting every pipeline-visible field and marking
// the headers unparsed. It is the reuse path behind the switch's PHV pool:
// the packet is decoded on the first header access (Headers), which
// overwrites the previous packet's layers and resets the decoded-layer set
// in place, so a recycled PHV behaves exactly like a fresh one without
// reallocating — and a pass that reads only metadata never decodes.
func (p *PHV) init(pkt *netproto.Packet) {
	p.Pkt = pkt
	p.FrameLen = pkt.Len()
	p.Meta = pkt.Meta
	p.EgressPort = -1
	p.McastGroup = 0
	p.Drop = false
	p.Recirculate = false
	p.DigestData = nil
	p.DigestFree = nil
	p.Dirty = false
	p.Scratch = [8]uint64{}
	p.Trace = nil
	p.TraceAt = 0
	p.parsed = false
}

// Headers returns the packet's parsed headers, parsing it on first use.
// Only layers the parser extracted hold this packet's values (see Has).
func (p *PHV) Headers() *netproto.Stack {
	if !p.parsed {
		p.parse()
	}
	return &p.stack
}

// parse decodes the packet into the header stack. The parser stops at
// unknown layers without failing the packet.
func (p *PHV) parse() {
	p.parsed = true
	_ = p.stack.Decode(p.Pkt.Data)
}

// Has reports whether the parser extracted the given layer.
func (p *PHV) Has(t netproto.LayerType) bool { return p.Headers().Has(t) }

// Deparse re-serializes modified headers in place over the packet data and
// recomputes checksums. Frame length never changes: the pipeline cannot add
// or remove bytes.
func (p *PHV) Deparse() {
	if !p.Dirty {
		return
	}
	p.Trace.Emit(p.TraceAt, obs.KindDeparse, p.Meta.UID, "", 0, int64(p.FrameLen))
	data := p.Pkt.Data
	s := p.Headers()
	off := 0
	if s.Has(netproto.LayerEthernet) {
		writeEthernet(data[off:], &s.Eth)
		off += netproto.EthernetLen
	}
	if s.Has(netproto.LayerVLAN) {
		writeDot1Q(data[off:], &s.VLAN)
		off += netproto.Dot1QLen
	}
	if s.Has(netproto.LayerIPv4) {
		writeIPv4(data[off:], &s.IP4)
		l4off := off + netproto.IPv4MinLen
		switch {
		case s.Has(netproto.LayerTCP):
			writeTCP(data[l4off:], &s.TCP, &s.IP4, int(s.IP4.TotalLen)-netproto.IPv4MinLen)
		case s.Has(netproto.LayerUDP):
			writeUDP(data[l4off:], &s.UDP, &s.IP4)
		case s.Has(netproto.LayerICMP):
			writeICMP(data[l4off:], &s.ICMP, int(s.IP4.TotalLen)-netproto.IPv4MinLen)
		}
	}
	p.Dirty = false
}
