// Quickstart: build a model from the zoo, protect it with FT2, and run a protected
// generation — the minimal end-to-end use of the public API.
package main

import (
	"fmt"
	"log"

	"ft2"
)

func main() {
	// 1. Pick a model from the paper's zoo (Table 2) and build it with
	//    deterministic weights in FP16.
	cfg, err := ft2.ModelByName("llama2-7b-sim")
	if err != nil {
		log.Fatal(err)
	}
	m, err := ft2.NewModel(cfg, 42, ft2.FP16)
	if err != nil {
		log.Fatal(err)
	}

	// 2. The criticality heuristic needs no execution: a layer is critical
	//    iff no scaling op or activation precedes the next linear layer.
	fmt.Println("critical layers (heuristic):")
	for _, ref := range ft2.CriticalLayers(cfg) {
		fmt.Printf("  %s\n", ref)
	}

	// 3. Build FT2 with the paper's defaults: first-token bounds scaled
	//    2x, clip-to-bound, NaN correction, critical-layer coverage.
	prot := ft2.Protect(m, ft2.DefaultOptions())

	// 4. Run a protected inference on a synthetic QA input.
	ds, err := ft2.LoadDataset("squad-sim", 1)
	if err != nil {
		log.Fatal(err)
	}
	out := prot.Generate(ds.Inputs[0].Prompt, ds.GenTokens)

	fmt.Printf("\ngenerated %d tokens: %v...\n", len(out), out[:10])
	fmt.Printf("bounds captured during first token: %d layers, %d bytes (fp16)\n",
		prot.Bounds().Len(), prot.Bounds().MemoryBytes(ft2.FP16))
	fmt.Printf("corrections applied after the first token: %+v\n", prot.Stats())
}
