package compiler

import (
	"fmt"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/p4ir"
)

// ChipBudget is the absolute resource capacity of the target switching
// ASIC, a Tofino-class chip: switch.p4 consumes roughly half of most
// classes, and stateful ALUs (which switch.p4 barely uses — the point the
// paper makes under Table 7) come four per stage across 12 stages. Programs
// exceeding any column are rejected at compile time, the behaviour §6.1
// requires ("HyperTester will reject the testing tasks that cannot be
// accommodated by switching ASIC").
var ChipBudget = p4ir.Resources{
	CrossbarBytes: 1536,
	SRAMBlocks:    1187,
	TCAMBlocks:    372,
	VLIWSlots:     710,
	HashBits:      3260,
	SALUs:         48,
	Gateways:      192,
}

// validateProgram enforces the feasibility checks of §6.1.
func validateProgram(prog *Program, opts Options) error {
	// Template count against accelerator capacity: every template must
	// keep at least one copy in flight, and capacity shrinks with frame
	// size. Loopback ports extend it linearly (§6.1).
	if len(prog.Templates) > 0 {
		minSize := 1500
		for _, t := range prog.Templates {
			if t.Packet.Len() < minSize {
				minSize = t.Packet.Len()
			}
		}
		capacity := opts.RecircPaths * asic.AcceleratorCapacity(minSize)
		if len(prog.Templates) > capacity {
			return fmt.Errorf(
				"compiler: %d template packets exceed the accelerator capacity of %d (%d path(s), %d-byte templates); configure more loopback ports (§6.1)",
				len(prog.Templates), capacity, opts.RecircPaths, minSize)
		}
	}

	r := prog.Resources
	type col struct {
		name string
		use  float64
		cap  float64
	}
	cols := []col{
		{"match crossbar", float64(r.CrossbarBytes), float64(ChipBudget.CrossbarBytes)},
		{"SRAM", r.SRAMBlocks, ChipBudget.SRAMBlocks},
		{"TCAM", r.TCAMBlocks, ChipBudget.TCAMBlocks},
		{"VLIW", float64(r.VLIWSlots), float64(ChipBudget.VLIWSlots)},
		{"hash bits", float64(r.HashBits), float64(ChipBudget.HashBits)},
		{"SALU", float64(r.SALUs), float64(ChipBudget.SALUs)},
		{"gateways", float64(r.Gateways), float64(ChipBudget.Gateways)},
	}
	for _, c := range cols {
		if c.use > c.cap {
			return fmt.Errorf(
				"compiler: task needs %.1f %s but the chip has %.1f; the task cannot be accommodated (§6.1)",
				c.use, c.name, c.cap)
		}
	}

	// Whole-chip totals fit; now verify the plan can actually be laid out
	// on the staged pipeline and executed safely on every packet
	// (verifyir.go), under the template invariants.
	if prog.P4 != nil {
		return VerifyPlan(prog.P4, TofinoStageModel, TemplateInvariants(prog))
	}
	return nil
}
