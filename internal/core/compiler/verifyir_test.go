package compiler

import (
	"fmt"
	"strings"
	"testing"

	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/p4ir"
)

// rmwProg builds a minimal program with n tables whose actions each RMW a
// register, applied sequentially (reg name shared when shared is true).
func rmwProg(n int, shared bool) *p4ir.Program {
	p := &p4ir.Program{Name: "t", Headers: []string{"ethernet", "ipv4"}}
	for i := 0; i < n; i++ {
		reg := "reg_shared"
		if !shared {
			reg = "reg_" + string(rune('a'+i))
		}
		p.AddRegisterOnce(&p4ir.RegisterDef{Name: reg, Width: 32, Size: 1024})
		a := p.AddAction(&p4ir.ActionDef{
			Name: "act_" + string(rune('a'+i)),
			Ops:  []p4ir.Op{{Kind: p4ir.OpRegisterRMW, Dst: reg, Src: "1", Bits: 32}},
		})
		t := p.AddTable(&p4ir.TableDef{
			Name:     "tbl_" + string(rune('a'+i)),
			Pipeline: p4ir.PipeIngress,
			Match:    p4ir.MatchExact,
			Keys:     []p4ir.KeyDef{{Field: "ipv4.dstAddr", Bits: 32}},
			Actions:  []string{a.Name},
			Size:     16,
		})
		p.Ingress = append(p.Ingress, p4ir.ControlStmt{Apply: t.Name})
	}
	return p
}

func TestVerifyRejectsStageOverflow(t *testing.T) {
	// Each table's exact-match SRAM is sized to nearly fill one stage, so
	// no two share a stage; one more table than there are stages cannot
	// be placed.
	p := &p4ir.Program{Name: "wide", Headers: []string{"ethernet", "ipv4"}}
	noop := p.AddAction(&p4ir.ActionDef{Name: "nop", Ops: []p4ir.Op{{Kind: p4ir.OpNoOp}}})
	perStageBlocks := TofinoStageModel.PerStage.SRAMBlocks
	// entry = 32 key + overhead + action-data bits; pick a size just under
	// one stage's SRAM.
	entryBits := 32 + 32 + 64
	size := int(perStageBlocks-1) * 16 * 1024 * 8 / entryBits
	for i := 0; i <= TofinoStageModel.Stages; i++ {
		tbl := p.AddTable(&p4ir.TableDef{
			Name:     "big_" + string(rune('a'+i)),
			Pipeline: p4ir.PipeIngress,
			Match:    p4ir.MatchExact,
			Keys:     []p4ir.KeyDef{{Field: "ipv4.dstAddr", Bits: 32}},
			Actions:  []string{noop.Name},
			Size:     size,
		})
		p.Ingress = append(p.Ingress, p4ir.ControlStmt{Apply: tbl.Name})
	}
	err := VerifyPlan(p, TofinoStageModel, nil)
	if err == nil || !strings.Contains(err.Error(), "stage") {
		t.Fatalf("want stage budget overflow, got %v", err)
	}
}

func TestVerifyRejectsOversizedSingleTable(t *testing.T) {
	p := &p4ir.Program{Name: "huge", Headers: []string{"ethernet", "ipv4"}}
	noop := p.AddAction(&p4ir.ActionDef{Name: "nop", Ops: []p4ir.Op{{Kind: p4ir.OpNoOp}}})
	tbl := p.AddTable(&p4ir.TableDef{
		Name:     "monster",
		Pipeline: p4ir.PipeIngress,
		Match:    p4ir.MatchExact,
		Keys:     []p4ir.KeyDef{{Field: "ipv4.dstAddr", Bits: 32}},
		Actions:  []string{noop.Name},
		Size:     20_000_000, // far beyond 12 stages of SRAM even spanning
	})
	p.Ingress = append(p.Ingress, p4ir.ControlStmt{Apply: tbl.Name})
	err := VerifyPlan(p, TofinoStageModel, nil)
	if err == nil || !strings.Contains(err.Error(), "alone needs") {
		t.Fatalf("want single-table span failure, got %v", err)
	}
}

func TestVerifyRejectsDoubleSALUAccess(t *testing.T) {
	// Two sequentially applied tables RMW the same register: one packet
	// pass would fire the register's SALU twice.
	p := rmwProg(2, true)
	err := VerifyPlan(p, TofinoStageModel, nil)
	if err == nil || !strings.Contains(err.Error(), "at most once per packet") {
		t.Fatalf("want SALU conflict, got %v", err)
	}

	// Distinct registers are fine.
	if err := VerifyPlan(rmwProg(2, false), TofinoStageModel, nil); err != nil {
		t.Fatalf("distinct registers must verify: %v", err)
	}
}

func TestVerifyRejectsDoubleSALUAccessInOneAction(t *testing.T) {
	p := &p4ir.Program{Name: "dbl", Headers: []string{"ethernet", "ipv4"}}
	p.AddRegister(&p4ir.RegisterDef{Name: "cnt", Width: 32, Size: 64})
	a := p.AddAction(&p4ir.ActionDef{Name: "twice", Ops: []p4ir.Op{
		{Kind: p4ir.OpRegisterRead, Dst: "cnt", Src: "meta.v", Bits: 32},
		{Kind: p4ir.OpRegisterWrite, Dst: "cnt", Src: "meta.v", Bits: 32},
	}})
	tbl := p.AddTable(&p4ir.TableDef{
		Name: "t", Pipeline: p4ir.PipeIngress, Match: p4ir.MatchExact,
		Keys:    []p4ir.KeyDef{{Field: "ipv4.dstAddr", Bits: 32}},
		Actions: []string{a.Name}, Size: 4,
	})
	p.Ingress = append(p.Ingress, p4ir.ControlStmt{Apply: tbl.Name})
	err := VerifyPlan(p, TofinoStageModel, nil)
	if err == nil || !strings.Contains(err.Error(), "twice in one pass") {
		t.Fatalf("want same-action double access, got %v", err)
	}
}

func TestVerifyAcceptsExclusiveSALUBranches(t *testing.T) {
	// Same register behind provably exclusive guards is one access per
	// packet: equality on the same field with different constants, and
	// Then vs Else of one condition.
	base := rmwProg(2, true)
	base.Ingress = []p4ir.ControlStmt{
		{If: "meta.template_id == 1", Then: []p4ir.ControlStmt{{Apply: "tbl_a"}}},
		{If: "meta.template_id == 2", Then: []p4ir.ControlStmt{{Apply: "tbl_b"}}},
	}
	if err := VerifyPlan(base, TofinoStageModel, nil); err != nil {
		t.Fatalf("exclusive equality guards must verify: %v", err)
	}

	thenElse := rmwProg(2, true)
	thenElse.Ingress = []p4ir.ControlStmt{{
		If:   "meta.is_probe == 1",
		Then: []p4ir.ControlStmt{{Apply: "tbl_a"}},
		Else: []p4ir.ControlStmt{{Apply: "tbl_b"}},
	}}
	if err := VerifyPlan(thenElse, TofinoStageModel, nil); err != nil {
		t.Fatalf("then/else branches must verify: %v", err)
	}

	// Same constant on both guards is NOT exclusive.
	same := rmwProg(2, true)
	same.Ingress = []p4ir.ControlStmt{
		{If: "meta.template_id == 1", Then: []p4ir.ControlStmt{{Apply: "tbl_a"}}},
		{If: "meta.template_id == 1", Then: []p4ir.ControlStmt{{Apply: "tbl_b"}}},
	}
	if err := VerifyPlan(same, TofinoStageModel, nil); err == nil {
		t.Fatal("identical guards must not count as exclusive")
	}
}

func TestVerifyRejectsParserCycle(t *testing.T) {
	p := &p4ir.Program{
		Name:    "cyc",
		Headers: []string{"ethernet", "ipv4"},
		Parser: []p4ir.ParserEdge{
			{From: "ethernet", To: "ipv4"},
			{From: "ipv4", To: "vlan"},
			{From: "vlan", To: "ipv4"}, // QinQ-style loop back into ipv4
		},
	}
	err := VerifyPlan(p, TofinoStageModel, nil)
	if err == nil || !strings.Contains(err.Error(), "cycle: ethernet -> ipv4 -> vlan -> ipv4") {
		t.Fatalf("want parser cycle with its full path, got %v", err)
	}

	// The linear chain derived from Headers is acyclic.
	p.Parser = nil
	if err := VerifyPlan(p, TofinoStageModel, nil); err != nil {
		t.Fatalf("linear parser must verify: %v", err)
	}
}

func TestVerifyRejectsUnboundedRecirculation(t *testing.T) {
	// mk builds a recirculating table; rmw is the loop-state SALU program
	// run before recirculating ("" for none).
	mk := func(guard, rmw string) *p4ir.Program {
		p := &p4ir.Program{Name: "rc", Headers: []string{"ethernet", "ipv4"}}
		ops := []p4ir.Op{{Kind: p4ir.OpRecirculate}}
		if rmw != "" {
			p.AddRegister(&p4ir.RegisterDef{Name: "inflight", Width: 32, Size: 64})
			ops = append([]p4ir.Op{{Kind: p4ir.OpRegisterRMW, Dst: "inflight", Src: rmw, Bits: 32}}, ops...)
		}
		a := p.AddAction(&p4ir.ActionDef{Name: "do_recirc", Ops: ops})
		tbl := p.AddTable(&p4ir.TableDef{
			Name: "recirc_tbl", Pipeline: p4ir.PipeIngress, Match: p4ir.MatchExact,
			Keys:    []p4ir.KeyDef{{Field: "ipv4.dstAddr", Bits: 32}},
			Actions: []string{a.Name}, Size: 4,
		})
		apply := p4ir.ControlStmt{Apply: tbl.Name}
		if guard != "" {
			p.Ingress = []p4ir.ControlStmt{{If: guard, Then: []p4ir.ControlStmt{apply}}}
		} else {
			p.Ingress = []p4ir.ControlStmt{apply}
		}
		return p
	}

	err := VerifyPlan(mk("", "+1"), TofinoStageModel, nil)
	if err == nil || !strings.Contains(err.Error(), "recirculates unconditionally") {
		t.Fatalf("want unguarded recirculation rejection, got %v", err)
	}

	// A tautological guard is no guard.
	err = VerifyPlan(mk("true", "+1"), TofinoStageModel, nil)
	if err == nil || !strings.Contains(err.Error(), "recirculates unconditionally") {
		t.Fatalf("want true-guard recirculation rejection, got %v", err)
	}

	err = VerifyPlan(mk("meta.loop == 1", ""), TofinoStageModel, nil)
	if err == nil || !strings.Contains(err.Error(), "loop state") {
		t.Fatalf("want stateless recirculation rejection, got %v", err)
	}

	// Guarded and stateful: the shape the generator emits for loop
	// templates.
	if err := VerifyPlan(mk("meta.template_id != 0", "+1"), TofinoStageModel, nil); err != nil {
		t.Fatalf("bounded recirculation must verify: %v", err)
	}

	// Guarded, but the loop state is overwritten rather than increased:
	// nothing proves the loop ends.
	err = VerifyPlan(mk("meta.template_id != 0", "1"), TofinoStageModel, nil)
	if err == nil || !strings.Contains(err.Error(), "no termination proof") {
		t.Fatalf("want missing termination proof, got %v", err)
	}
}

// TestVerifyRejectsTruncatedWalk: a plan with more feasible paths than the
// verifier enumerates is not proved safe, so it does not compile.
func TestVerifyRejectsTruncatedWalk(t *testing.T) {
	p := &p4ir.Program{Name: "boom", Headers: []string{"ethernet"}}
	noop := p.AddAction(&p4ir.ActionDef{Name: "nop", Ops: []p4ir.Op{{Kind: p4ir.OpNoOp}}})
	tbl := p.AddTable(&p4ir.TableDef{
		Name: "t", Pipeline: p4ir.PipeIngress, Match: p4ir.MatchExact,
		Keys:    []p4ir.KeyDef{{Field: "meta.one", Bits: 1}},
		Actions: []string{noop.Name}, Size: 1,
		Entries: []p4ir.Entry{{Values: []uint64{1}}},
	})
	// 16 stacked two-way gateways: 2^16 paths, past the walk's cap.
	stmts := []p4ir.ControlStmt{{Apply: tbl.Name}}
	for i := 0; i < 16; i++ {
		stmts = []p4ir.ControlStmt{{If: fmt.Sprintf("meta.f%d != 0", i), Then: stmts, Else: stmts}}
	}
	p.Ingress = stmts
	err := VerifyPlan(p, TofinoStageModel, nil)
	if err == nil || !strings.Contains(err.Error(), "path enumeration stopped") {
		t.Fatalf("want truncated-walk rejection, got %v", err)
	}
}

// TestVerifyAcceptsIntervalExclusiveGuards: two interval guards over one
// field can be mutually exclusive without an equality on a shared field.
// The path-sensitive verdict must accept the disjoint pair and still reject
// an overlapping one.
func TestVerifyAcceptsIntervalExclusiveGuards(t *testing.T) {
	disjoint := rmwProg(2, true)
	disjoint.Ingress = []p4ir.ControlStmt{
		{If: "meta.x < 2", Then: []p4ir.ControlStmt{{Apply: "tbl_a"}}},
		{If: "meta.x > 5", Then: []p4ir.ControlStmt{{Apply: "tbl_b"}}},
	}
	if err := VerifyPlan(disjoint, TofinoStageModel, nil); err != nil {
		t.Fatalf("disjoint interval guards must verify: %v", err)
	}

	overlap := rmwProg(2, true)
	overlap.Ingress = []p4ir.ControlStmt{
		{If: "meta.x >= 2", Then: []p4ir.ControlStmt{{Apply: "tbl_a"}}},
		{If: "meta.x <= 5", Then: []p4ir.ControlStmt{{Apply: "tbl_b"}}},
	}
	err := VerifyPlan(overlap, TofinoStageModel, nil)
	if err == nil || !strings.Contains(err.Error(), "at most once per packet") {
		t.Fatalf("overlapping interval guards must be rejected, got %v", err)
	}
}

// TestVerifyAcceptsCompiledPlans pins the other half of the contract: every
// plan the compiler actually produces must pass the verifier (it already
// runs inside Compile via validateProgram; calling it again directly makes
// the acceptance explicit and keeps it if the wiring ever changes).
func TestVerifyAcceptsCompiledPlans(t *testing.T) {
	specs := map[string]string{
		"throughput": `
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 1, 1])
    .set([loop, length], [0, 64])
    .set(port, 0)
Q1 = query(T1).map(p -> (pkt_len)).reduce(func=sum)
Q2 = query().map(p -> (pkt_len)).reduce(func=sum)
`,
		"loop": `
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [9.9.9.9, 1.1.0.1, udp, 1, 1])
    .set([loop, length], [1, 64])
    .set(port, 0)
Q1 = query().map(p -> (pkt_len)).reduce(func=count)
`,
		"mods": `
T1 = trigger()
    .set([dip, proto], [9.9.9.9, tcp])
    .set(sport, range(1024, 2047, 1))
    .set(dport, [80, 81, 82])
    .set([loop, length], [0, 128])
    .set(port, 2)
Q1 = query(T1).map(p -> (pkt_len)).reduce(func=sum)
`,
	}
	for name, src := range specs {
		task, err := ntapi.Parse(name, src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		prog, err := Compile(task, Options{})
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		if prog.P4 == nil {
			t.Fatalf("%s: no generated P4", name)
		}
		if err := VerifyPlan(prog.P4, TofinoStageModel, TemplateInvariants(prog)); err != nil {
			t.Errorf("%s: compiled plan rejected: %v", name, err)
		}
	}
}
