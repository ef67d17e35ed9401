package htpr

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/core/stateless"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
)

// QueryState is the runtime of one compiled query.
type QueryState struct {
	Plan *compiler.QueryPlan

	// Matches counts packets that passed the filter chain.
	Matches uint64
	// MatchedBytes sums their frame lengths (throughput reporting).
	MatchedBytes uint64

	// Table is the counter table for reduce/distinct queries; nil for
	// capture queries.
	Table *CounterTable

	// TriggerFIFO, when non-nil, receives trigger records for the
	// stateless-connection template this query drives (§5.3).
	TriggerFIFO *stateless.FIFO
	// RecordsPushed counts records handed to HTPS.
	RecordsPushed uint64

	// Delay-measurement state (KindDelay): a hash-indexed timestamp
	// register written at egress and consumed at ingress.
	delayStore *asic.RegisterArray
	delayHash  *asic.HashUnit
	DelayCount uint64
	DelaySumNs float64
	DelayMinNs float64
	DelayMaxNs float64

	// key and rec are the per-packet key tuple and trigger record, built
	// in place (Update and FIFO.Push copy what they keep); keyBytes is
	// delayIndex's encoded key.
	key, rec []uint64
	keyBytes []byte
}

// Receiver deploys compiled queries onto a switch's pipelines: ingress for
// received traffic, egress for sent traffic (§5.2's component layout).
type Receiver struct {
	prog   *compiler.Program
	states []*QueryState

	// DigestRoom, when set, gates digest attachment on channel
	// backpressure (a learn filter's pipeline-visible signal): pending
	// messages wait on the data plane until the channel has room, or the
	// CPU drains them at collection time.
	DigestRoom func() bool

	// dkey is the key buffer MergeDigest decodes into.
	dkey []uint64
}

// NewReceiver builds runtime state for every query in the program,
// including the trigger FIFOs for stateless connections.
func NewReceiver(prog *compiler.Program) *Receiver {
	r := &Receiver{prog: prog}
	for _, plan := range prog.Queries {
		st := &QueryState{Plan: plan}
		if plan.Kind == ntapi.KindReduce || plan.Kind == ntapi.KindDistinct {
			st.Table = NewCounterTable(plan)
		}
		if plan.Kind == ntapi.KindDelay {
			st.delayStore = asic.NewRegisterArray("delay-ts", plan.ArraySize)
			st.delayHash = asic.NewHashUnit("delay-key", plan.PolyArray1)
		}
		if plan.TriggerTemplateID != 0 {
			st.TriggerFIFO = stateless.New(
				fmt.Sprintf("trigger-fifo-q%d", plan.ID), plan.RecordFields, 4096)
		}
		r.states = append(r.states, st)
	}
	return r
}

// State returns the runtime state of a query by 1-based ID, or nil.
func (r *Receiver) State(queryID int) *QueryState {
	for _, st := range r.states {
		if st.Plan.ID == queryID {
			return st
		}
	}
	return nil
}

// States returns all query states.
func (r *Receiver) States() []*QueryState { return r.states }

// Observe binds every query's SALU register arrays (counter-table slots,
// delay-timestamp store) to a trace stream, emitting one salu record per
// access.
func (r *Receiver) Observe(clock *netsim.Sim, tr *obs.Trace) {
	for _, st := range r.states {
		if st.Table != nil {
			st.Table.Observe(clock, tr)
		}
		if st.delayStore != nil {
			st.delayStore.Observe(clock, tr)
		}
	}
}

// MergeDigest is the switch-CPU side of eviction reporting (§5.2: evicted
// KV pairs reach the CPU via generate_digest): it decodes one eviction
// message received over the digest channel and folds it into its query's
// CPU aggregate. Messages that do not decode are ignored.
func (r *Receiver) MergeDigest(msg []byte) {
	qid, key, v, err := DecodeEviction(msg, r.dkey[:0])
	if err != nil {
		return
	}
	r.dkey = key
	if st := r.State(qid); st != nil && st.Table != nil {
		st.Table.MergeEviction(key, v)
	}
}

// attachDigest hands one queued eviction message to the current packet's
// digest slot (one generate_digest per packet traversal), honouring channel
// backpressure.
func (r *Receiver) attachDigest(p *asic.PHV) {
	if p.DigestData != nil {
		return
	}
	if r.DigestRoom != nil && !r.DigestRoom() {
		return
	}
	for _, st := range r.states {
		if ct := st.Table; ct != nil && ct.evictions.len() > 0 {
			// The buffer comes back through DigestFree when the ASIC has
			// copied it onto the channel (or dropped the PHV unconsumed).
			p.DigestData = ct.nextDigest()
			p.DigestFree = ct.recycle
			return
		}
	}
}

// TriggerFIFO returns the record FIFO a query feeds, or nil.
func (r *Receiver) TriggerFIFO(queryID int) *stateless.FIFO {
	if st := r.State(queryID); st != nil {
		return st.TriggerFIFO
	}
	return nil
}

// IngressProcessor handles received traffic: every non-template packet runs
// through the ingress-deployed queries; every template packet instead pops
// one KV-FIFO entry per counter table (the recirculated-packet drain of
// Figure 5).
func (r *Receiver) IngressProcessor() asic.Processor {
	return asic.ProcessorFunc(func(p *asic.PHV) {
		if p.Meta.TemplateID != 0 {
			for _, st := range r.states {
				if st.Table != nil {
					st.Table.DrainOne()
				}
			}
			r.attachDigest(p)
			return
		}
		for _, st := range r.states {
			if st.Plan.Egress {
				continue
			}
			if st.Plan.Port >= 0 && st.Plan.Port != p.Meta.InPort {
				continue
			}
			if st.Plan.Kind == ntapi.KindDelay {
				if filtersPass(st, p) {
					st.recordDelay(p)
				}
				continue
			}
			r.process(st, p)
		}
		r.attachDigest(p)
	})
}

// EgressProcessor handles sent traffic: queries bound to a template observe
// its replicas after the editor has rewritten them, and delay queries store
// the sent-side timestamp for each outgoing test packet.
func (r *Receiver) EgressProcessor() asic.Processor {
	return asic.ProcessorFunc(func(p *asic.PHV) {
		if p.Meta.TemplateID == 0 || p.Meta.ReplicaID == 0 {
			return
		}
		for _, st := range r.states {
			if st.Plan.Kind == ntapi.KindDelay {
				if filtersPass(st, p) {
					idx := st.delayIndex(p)
					st.delayStore.Write(idx, uint64(r.nowPs(p)))
				}
				continue
			}
			if !st.Plan.Egress || st.Plan.SentTemplateID != p.Meta.TemplateID {
				continue
			}
			r.process(st, p)
		}
	})
}

// nowPs reads the pipeline timestamp a stage sees for this packet: the
// MAC-assigned ingress timestamp (ns) scaled to the simulation clock. It is
// the SW-timestamp accuracy class of Fig. 18.
func (r *Receiver) nowPs(p *asic.PHV) int64 { return p.Meta.IngressPs }

func filtersPass(st *QueryState, p *asic.PHV) bool {
	for _, f := range st.Plan.Filters {
		if !f.Eval(p) {
			return false
		}
	}
	return true
}

// appendFields appends the packet's values of fields to dst.
func appendFields(dst []uint64, fields []asic.Field, p *asic.PHV) []uint64 {
	for _, f := range fields {
		dst = append(dst, f.Get(p))
	}
	return dst
}

// delayIndex hashes the query's key fields into the timestamp register.
func (st *QueryState) delayIndex(p *asic.PHV) int {
	st.key = appendFields(st.key[:0], st.Plan.Keys, p)
	st.keyBytes = compiler.AppendKey(st.keyBytes[:0], st.key)
	return st.delayHash.Index(st.keyBytes, st.Plan.ArraySize)
}

// recordDelay consumes a stored sent-side timestamp and accumulates the
// delay sample.
func (st *QueryState) recordDelay(p *asic.PHV) {
	idx := st.delayIndex(p)
	sent := st.delayStore.RMW(idx, func(old uint64) (uint64, uint64) { return 0, old })
	if sent == 0 {
		return
	}
	st.Matches++
	d := float64(p.Meta.IngressPs-int64(sent)) / 1e3 // ps -> ns
	if d < 0 {
		return
	}
	st.DelayCount++
	st.DelaySumNs += d
	if st.DelayCount == 1 || d < st.DelayMinNs {
		st.DelayMinNs = d
	}
	if d > st.DelayMaxNs {
		st.DelayMaxNs = d
	}
}

// process runs one packet through one query.
func (r *Receiver) process(st *QueryState, p *asic.PHV) {
	for _, f := range st.Plan.Filters {
		if !f.Eval(p) {
			return
		}
	}
	st.Matches++
	st.MatchedBytes += uint64(p.FrameLen)

	if st.Table != nil {
		st.key = appendFields(st.key[:0], st.Plan.Keys, p)
		delta := uint64(1)
		if st.Plan.ValueField != asic.FieldNone {
			delta = st.Plan.ValueField.Get(p)
		}
		agg := st.Table.Update(st.key, delta)
		for _, pred := range st.Plan.Post {
			if !pred.Eval(agg) {
				return
			}
		}
	}
	if st.TriggerFIFO != nil {
		st.rec = appendFields(st.rec[:0], st.Plan.RecordFields, p)
		if st.TriggerFIFO.Push(st.rec) {
			st.RecordsPushed++
		}
	}
}

// Report is the collected outcome of one query.
type Report struct {
	Query   string
	Kind    ntapi.QueryKind
	Matches uint64
	Bytes   uint64
	// Results holds per-key aggregates for reduce, per-key presence for
	// distinct; nil for capture queries.
	Results []Result
	// Distinct is the distinct-key count (distinct queries).
	Distinct int
	// Delay statistics (delay queries), in nanoseconds.
	DelaySamples uint64
	DelayMeanNs  float64
	DelayMinNs   float64
	DelayMaxNs   float64
}

// Collect assembles reports for every query.
func (r *Receiver) Collect() []Report {
	var out []Report
	for _, st := range r.states {
		rep := Report{
			Query:   st.Plan.Query.Name,
			Kind:    st.Plan.Kind,
			Matches: st.Matches,
			Bytes:   st.MatchedBytes,
		}
		if st.Table != nil {
			rep.Results = st.Table.Collect()
			rep.Distinct = len(rep.Results)
		}
		if st.Plan.Kind == ntapi.KindDelay && st.DelayCount > 0 {
			rep.DelaySamples = st.DelayCount
			rep.DelayMeanNs = st.DelaySumNs / float64(st.DelayCount)
			rep.DelayMinNs = st.DelayMinNs
			rep.DelayMaxNs = st.DelayMaxNs
		}
		out = append(out, rep)
	}
	return out
}
