package compiler

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/p4ir"
	"github.com/hypertester/hypertester/internal/verify"
)

// This file is the compile-time plan gate: validate.go's whole-chip budget
// check says whether a program fits the chip *in total*; VerifyPlan says
// whether it can actually be *laid out and executed* on an RMT pipeline.
// Two checks live here because no other module makes them:
//
//   - table/register placements that overflow the per-stage resource
//     budget — a table has to live in *some* stage, and stages are finite;
//   - unguarded recirculation — a `recirculate` reachable on every packet
//     with no loop state to bound it recirculates forever and melts the
//     accelerator's capacity model (§6.1).
//
// Every per-packet safety property — parser termination, header validity,
// one SALU access per register per pass, a termination proof for each
// recirculation — is delegated to one run of the path-sensitive verifier
// (internal/verify), whose first error is the verdict.
//
// Placement is deliberately conservative where the real chip's compiler
// backtracks: greedy in control order, with a table spanning consecutive
// stages when wider than one stage's budget.

// StageModel is the stage-level capacity of the target ASIC.
type StageModel struct {
	// Stages is the number of physical match-action stages per pipeline
	// direction.
	Stages int
	// PerStage is the resource capacity of one stage.
	PerStage p4ir.Resources
}

// TofinoStageModel divides ChipBudget evenly across 12 stages, matching
// the RMT accounting validate.go uses for totals. SALUs are the hard
// per-stage wall: four per stage, the figure the paper leans on when
// explaining Table 7's SALU percentages.
var TofinoStageModel = StageModel{
	Stages: 12,
	PerStage: p4ir.Resources{
		CrossbarBytes: ChipBudget.CrossbarBytes / 12,
		SRAMBlocks:    ChipBudget.SRAMBlocks / 12,
		TCAMBlocks:    ChipBudget.TCAMBlocks / 12,
		VLIWSlots:     ChipBudget.VLIWSlots / 12,
		HashBits:      ChipBudget.HashBits / 12,
		SALUs:         ChipBudget.SALUs / 12,
		Gateways:      ChipBudget.Gateways / 12,
	},
}

// VerifyPlan statically checks a compiled pipeline plan against the stage
// model, then runs the path-sensitive verifier once under the environment
// invariants invs (nil when the plan has no templates to derive them from).
// It returns the first violation found, or nil for a deployable plan. A
// walk that hits its path cap proves nothing about the paths it never
// reached, so a truncated report fails the plan too.
func VerifyPlan(p *p4ir.Program, m StageModel, invs []verify.Implication) error {
	v := newVerifier(p)
	for _, pipe := range []struct {
		name  string
		stmts []p4ir.ControlStmt
	}{{"ingress", p.Ingress}, {"egress", p.Egress}} {
		if err := v.checkStagePlacement(pipe.name, pipe.stmts, m); err != nil {
			return err
		}
		if err := v.checkRecircBound(pipe.name, pipe.stmts); err != nil {
			return err
		}
	}
	rep := verify.Analyze(p, verify.Options{Invariants: invs})
	if errs := rep.Errors(); len(errs) > 0 {
		return fmt.Errorf("compiler: symbolic verifier: %s", errs[0])
	}
	if rep.Truncated {
		return fmt.Errorf(
			"compiler: symbolic verifier: program %s: path enumeration stopped at %d feasible paths, so no safety property is proved for the rest; split the task into smaller programs",
			p.Name, rep.Paths)
	}
	return nil
}

type verifier struct {
	prog    *p4ir.Program
	tables  map[string]*p4ir.TableDef
	actions map[string]*p4ir.ActionDef
}

func newVerifier(p *p4ir.Program) *verifier {
	v := &verifier{
		prog:    p,
		tables:  map[string]*p4ir.TableDef{},
		actions: map[string]*p4ir.ActionDef{},
	}
	for _, t := range p.Tables {
		v.tables[t.Name] = t
	}
	for _, a := range p.Actions {
		v.actions[a.Name] = a
	}
	return v
}

// checkStagePlacement lays the pipeline's tables into stages greedily in
// apply order — the order hardware dependencies follow, since our
// generator applies producers before consumers — and rejects the program
// when the tables do not fit the stage count. A table wider than one
// stage's budget spans consecutive stages (RMT table spreading); a
// register's SRAM is placed with the first table that accesses it.
func (v *verifier) checkStagePlacement(pipe string, stmts []p4ir.ControlStmt, m StageModel) error {
	var order []string
	seenTbl := map[string]bool{}
	var walk func(list []p4ir.ControlStmt)
	walk = func(list []p4ir.ControlStmt) {
		for i := range list {
			s := &list[i]
			if s.Apply != "" && !seenTbl[s.Apply] && v.tables[s.Apply] != nil {
				seenTbl[s.Apply] = true
				order = append(order, s.Apply)
			}
			walk(s.Then)
			walk(s.Else)
		}
	}
	walk(stmts)

	// Attach each register's memory to its first accessing table.
	regOf := map[string]*p4ir.RegisterDef{}
	for _, r := range v.prog.Registers {
		regOf[r.Name] = r
	}
	regPlaced := map[string]bool{}

	stage := 0 // current stage index (0-based)
	var use p4ir.Resources
	for _, name := range order {
		t := v.tables[name]
		cost := p4ir.TableCost(v.prog, t)
		for _, an := range t.Actions {
			a := v.actions[an]
			if a == nil {
				continue
			}
			for _, op := range a.Ops {
				switch op.Kind {
				case p4ir.OpRegisterRead, p4ir.OpRegisterWrite, p4ir.OpRegisterRMW:
					if r := regOf[op.Dst]; r != nil && !regPlaced[op.Dst] {
						regPlaced[op.Dst] = true
						cost.Add(p4ir.RegisterCost(r))
					}
				}
			}
		}

		span := stagesNeeded(cost, m.PerStage)
		if span > m.Stages {
			return fmt.Errorf(
				"compiler: table %s alone needs %d stages of %d (%s); the table cannot be laid out (§6.1)",
				name, span, m.Stages, overflowColumn(cost, m.PerStage))
		}
		sum := use
		sum.Add(cost)
		if fits(sum, m.PerStage) {
			use = sum
			continue
		}
		// Advance to a fresh stage (or a run of them for a spanning
		// table).
		stage += span
		if stage+1 > m.Stages {
			return fmt.Errorf(
				"compiler: stage budget overflow in %s: table %s needs stage %d but the chip has %d stages (%s); the task cannot be accommodated (§6.1)",
				pipe, name, stage+1, m.Stages, overflowColumn(cost, m.PerStage))
		}
		if span > 1 {
			// The spanning table fills its stages completely; the next
			// table starts fresh.
			use = m.PerStage
		} else {
			use = cost
		}
	}
	return nil
}

// fits reports whether use stays within cap on every column.
func fits(use, cap p4ir.Resources) bool {
	return use.CrossbarBytes <= cap.CrossbarBytes &&
		use.SRAMBlocks <= cap.SRAMBlocks &&
		use.TCAMBlocks <= cap.TCAMBlocks &&
		use.VLIWSlots <= cap.VLIWSlots &&
		use.HashBits <= cap.HashBits &&
		use.SALUs <= cap.SALUs &&
		use.Gateways <= cap.Gateways
}

// stagesNeeded returns how many whole stages a cost spans: the max over
// columns of ceil(cost/perStage).
func stagesNeeded(cost, per p4ir.Resources) int {
	n := 1
	ceil := func(a, b float64) int {
		if a <= 0 || b <= 0 {
			return 1
		}
		k := int(a / b)
		if float64(k)*b < a {
			k++
		}
		return k
	}
	for _, c := range [][2]float64{
		{float64(cost.CrossbarBytes), float64(per.CrossbarBytes)},
		{cost.SRAMBlocks, per.SRAMBlocks},
		{cost.TCAMBlocks, per.TCAMBlocks},
		{float64(cost.VLIWSlots), float64(per.VLIWSlots)},
		{float64(cost.HashBits), float64(per.HashBits)},
		{float64(cost.SALUs), float64(per.SALUs)},
		{float64(cost.Gateways), float64(per.Gateways)},
	} {
		if k := ceil(c[0], c[1]); k > n {
			n = k
		}
	}
	return n
}

// overflowColumn names the resource column that drives a placement
// failure, for actionable error messages.
func overflowColumn(cost, per p4ir.Resources) string {
	type col struct {
		name      string
		use, pcap float64
	}
	cols := []col{
		{"crossbar", float64(cost.CrossbarBytes), float64(per.CrossbarBytes)},
		{"SRAM", cost.SRAMBlocks, per.SRAMBlocks},
		{"TCAM", cost.TCAMBlocks, per.TCAMBlocks},
		{"VLIW", float64(cost.VLIWSlots), float64(per.VLIWSlots)},
		{"hash bits", float64(cost.HashBits), float64(per.HashBits)},
		{"SALU", float64(cost.SALUs), float64(per.SALUs)},
		{"gateways", float64(cost.Gateways), float64(per.Gateways)},
	}
	worst, ratio := "resources", 0.0
	for _, c := range cols {
		if c.pcap <= 0 {
			continue
		}
		if r := c.use / c.pcap; r > ratio {
			worst, ratio = fmt.Sprintf("%s %.1f per-stage cap %.1f", c.name, c.use, c.pcap), r
		}
	}
	return worst
}

// checkRecircBound rejects unbounded recirculation: every reachable
// `recirculate` must sit behind at least one real gateway condition (a
// data-plane exit path) and its action must maintain loop state in a
// register (the in-flight counter the accelerator uses), or the packet
// loops forever.
func (v *verifier) checkRecircBound(pipe string, stmts []p4ir.ControlStmt) error {
	var check func(stmts []p4ir.ControlStmt, guarded bool) error
	check = func(stmts []p4ir.ControlStmt, guarded bool) error {
		for i := range stmts {
			s := &stmts[i]
			if s.Apply != "" {
				t := v.tables[s.Apply]
				if t == nil {
					continue
				}
				for _, an := range t.Actions {
					a := v.actions[an]
					if a == nil {
						continue
					}
					hasRecirc, hasState := false, false
					for _, op := range a.Ops {
						switch op.Kind {
						case p4ir.OpRecirculate:
							hasRecirc = true
						case p4ir.OpRegisterRead, p4ir.OpRegisterWrite, p4ir.OpRegisterRMW:
							hasState = true
						}
					}
					if !hasRecirc {
						continue
					}
					if !guarded {
						return fmt.Errorf(
							"compiler: %s table %s recirculates unconditionally; every packet would loop forever — guard the apply with a gateway that can exit the loop",
							pipe, t.Name)
					}
					if !hasState {
						return fmt.Errorf(
							"compiler: %s action %s recirculates without maintaining loop state in a register; the recirculation count cannot be bounded — add an in-flight counter (RMW) to the action",
							pipe, a.Name)
					}
				}
			}
			g := guarded || (s.If != "" && s.If != "true")
			if err := check(s.Then, g); err != nil {
				return err
			}
			if err := check(s.Else, g); err != nil {
				return err
			}
		}
		return nil
	}
	return check(stmts, false)
}
