// First-token bounds: how FT2 captures per-inference activation ranges
// during the prefill pass, how scaling widens them, and how they compare to
// expensively profiled offline bounds — the mechanism of Section 4.2.
package main

import (
	"fmt"
	"log"

	"ft2"
	"ft2/internal/core"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/protect"
)

func main() {
	cfg, err := ft2.ModelByName("vicuna-7b-sim")
	if err != nil {
		log.Fatal(err)
	}
	ds, err := ft2.LoadDataset("squad-sim", 2)
	if err != nil {
		log.Fatal(err)
	}
	m, err := ft2.NewModel(cfg, 42, ft2.FP16)
	if err != nil {
		log.Fatal(err)
	}

	// Offline bounds over a profiling corpus (the expensive baseline way).
	offline := ft2.ProfileBounds(m, ds.ProfileSplit(25).Prompts(), ds.GenTokens)

	// First-token bounds from a single inference (FT2's way: free).
	prot := ft2.Protect(m, ft2.DefaultOptions())
	prot.Generate(ds.Inputs[0].Prompt, ds.GenTokens)
	online := prot.Bounds()

	fmt.Println("bounds for block 0 critical layers (offline vs first-token x2):")
	for _, kind := range []model.LayerKind{model.VProj, model.OutProj, model.UpProj, model.DownProj} {
		key := protect.SiteKey{Layer: model.LayerRef{Block: 0, Kind: kind}, Site: model.SiteLinearOut}
		off, _ := offline.Get(key)
		on, ok := online.Get(key)
		if !ok {
			log.Fatalf("no first-token bounds for %v", key.Layer)
		}
		scaled := on.Scale(2)
		fmt.Printf("  %-10s offline [%7.2f, %7.2f]   first-token x2 [%7.2f, %7.2f]\n",
			kind, off.Lo, off.Hi, scaled.Lo, scaled.Hi)
	}

	// The scaling factor sweep of Figure 9 in miniature: unscaled bounds
	// from one prefill are too tight and clip normal values; x2 is safe.
	fmt.Println("\nfault-free corrections by scaling factor (should reach 0):")
	for _, scale := range []float32{1, 1.25, 2} {
		m2 := model.MustNew(cfg, 42, numerics.FP16)
		opts := core.Defaults()
		opts.ScaleFactor = scale
		p := core.New(m2, opts)
		p.Generate(ds.Inputs[1].Prompt, ds.GenTokens)
		fmt.Printf("  scale %.2fx: %d values corrected in a fault-free run\n",
			scale, p.Stats().Total())
	}
}
