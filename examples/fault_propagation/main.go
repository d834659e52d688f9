// Fault propagation: trace how a single corrupted neuron spreads through
// the network, with and without protection — the Section 4.1.1 analysis —
// and contrast FT2 with full duplication in place (DMR).
package main

import (
	"fmt"
	"log"

	"ft2"
	"ft2/internal/core"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/protect"
	"ft2/internal/tensor"
	"ft2/internal/trace"
)

func main() {
	cfg, err := ft2.ModelByName("opt-6.7b-sim")
	if err != nil {
		log.Fatal(err)
	}
	ds, err := ft2.LoadDataset("squad-sim", 1)
	if err != nil {
		log.Fatal(err)
	}
	m, err := ft2.NewModel(cfg, 42, ft2.FP16)
	if err != nil {
		log.Fatal(err)
	}
	prompt := ds.Inputs[0].Prompt

	inject := func() {
		m.RegisterHook(func(ctx model.HookCtx, out *tensor.Tensor) {
			if ctx.Layer == (model.LayerRef{Block: 0, Kind: model.FC2}) && ctx.Step == 2 && ctx.Site == model.SiteLinearOut {
				out.Data[5] = 48000 // an exponent-flip-sized extreme value
			}
		})
	}

	fmt.Println("=== unprotected: the extreme value reaches every later layer ===")
	devs, err := trace.Run(m, prompt, 12, inject)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(trace.Summarize(trace.Affected(devs, 1e-3), cfg.Family))

	fmt.Println("\n=== FT2 attached: clipped right after the originating layer ===")
	devs, err = trace.Run(m, prompt, 12, func() {
		inject()
		m.RegisterHook(core.New(m, core.Defaults()).Hook())
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(trace.Summarize(trace.Affected(devs, 1e-3), cfg.Family))

	fmt.Println("\n=== DMR attached: recomputation erases the fault entirely ===")
	devs, err = trace.Run(m, prompt, 12, func() {
		inject()
		m.RegisterHook(protect.NewDMR(m).Hook())
	})
	if err != nil {
		log.Fatal(err)
	}
	affected := trace.Affected(devs, 1e-3)
	if len(affected) == 0 {
		fmt.Println("(no site deviates from the golden run)")
	} else {
		fmt.Print(trace.Summarize(affected, cfg.Family))
	}
	_ = numerics.FP16
}
