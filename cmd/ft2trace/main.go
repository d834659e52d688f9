// Command ft2trace injects one fault and prints how it propagates through
// the network — per-site deviation from the golden run — optionally with
// FT2 protection attached, reproducing the Section 4.1.1 style analysis:
//
//	ft2trace -model opt-6.7b-sim -layer FC2 -block 1 -step 2 -value 30000
//	ft2trace -model llama2-7b-sim -layer V_PROJ -block 0 -step 1 -nan -protect
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"ft2/internal/core"
	"ft2/internal/data"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/tensor"
	"ft2/internal/trace"
)

func main() {
	modelName := flag.String("model", "opt-6.7b-sim", "zoo model name")
	dsName := flag.String("dataset", "squad-sim", "dataset for the prompt")
	layerName := flag.String("layer", "FC2", "layer kind to corrupt")
	block := flag.Int("block", 0, "block index")
	step := flag.Int("step", 1, "generation step of the fault")
	elem := flag.Int("elem", 0, "element index within the layer output")
	value := flag.Float64("value", 30000, "corrupted value to write")
	useNaN := flag.Bool("nan", false, "inject NaN instead of -value")
	protectFlag := flag.Bool("protect", false, "attach FT2 protection")
	threshold := flag.Float64("threshold", 1e-4, "relative-L2 reporting threshold")
	seed := flag.Int64("seed", 42, "model seed")
	flag.Parse()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "ft2trace:", err)
		os.Exit(1)
	}
	cfg, err := model.ConfigByName(*modelName)
	if err != nil {
		die(err)
	}
	var kind model.LayerKind
	found := false
	for _, k := range cfg.Family.LayerKinds() {
		if k.String() == *layerName {
			kind, found = k, true
		}
	}
	if !found {
		die(fmt.Errorf("layer %q not in family %v (have %v)", *layerName, cfg.Family, cfg.Family.LayerKinds()))
	}
	ds, err := data.ByName(*dsName, 1)
	if err != nil {
		die(err)
	}
	m, err := model.New(cfg, *seed, numerics.FP16)
	if err != nil {
		die(err)
	}

	corrupted := float32(*value)
	if *useNaN {
		corrupted = float32(math.NaN())
	}
	ref := model.LayerRef{Block: *block, Kind: kind}
	devs, err := trace.Run(m, ds.Inputs[0].Prompt, ds.GenTokens, func() {
		m.RegisterHook(func(ctx model.HookCtx, out *tensor.Tensor) {
			if ctx.Layer == ref && ctx.Step == *step && ctx.Site == model.SiteLinearOut {
				if *elem < len(out.Data) {
					out.Data[*elem] = corrupted
				}
			}
		})
		if *protectFlag {
			m.RegisterHook(core.New(m, core.Defaults()).Hook())
		}
	})
	if err != nil {
		die(err)
	}

	affected := trace.Affected(devs, *threshold)
	fmt.Printf("fault: %s step %d elem %d <- %g (protect=%v)\n", ref, *step, *elem, corrupted, *protectFlag)
	fmt.Printf("affected sites: %d of %d observations\n\n", len(affected), len(devs))
	fmt.Print(trace.Summarize(affected, cfg.Family))
}
