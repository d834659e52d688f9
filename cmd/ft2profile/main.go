// Command ft2profile compares the two ways of obtaining range-restriction
// bounds: the expensive offline profiling pass over a corpus (with its
// modeled cost on the reference GPUs) and FT2's free first-token capture,
// printing both bound sets side by side for a model:
//
//	ft2profile -model opt-6.7b-sim -dataset squad-sim -inputs 20
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"ft2/internal/core"
	"ft2/internal/data"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/perfmodel"
	"ft2/internal/protect"
)

func main() {
	modelName := flag.String("model", "opt-6.7b-sim", "zoo model name")
	dsName := flag.String("dataset", "squad-sim", "dataset name")
	inputs := flag.Int("inputs", 20, "profiling corpus size")
	seed := flag.Int64("seed", 42, "seed")
	flag.Parse()

	cfg, err := model.ConfigByName(*modelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ft2profile:", err)
		os.Exit(1)
	}
	ds, err := data.ByName(*dsName, *inputs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ft2profile:", err)
		os.Exit(1)
	}
	m, err := model.New(cfg, *seed, numerics.FP16)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ft2profile:", err)
		os.Exit(1)
	}

	// Offline profiling (wall-clock measured on the Go engine; hours
	// modeled for the reference hardware).
	start := time.Now()
	offline := protect.OfflineProfile(m, ds.Prompts(), ds.GenTokens)
	elapsed := time.Since(start)

	w := perfmodel.Workload{
		Params: cfg.RefParams, PromptTokens: ds.RefPromptTokens,
		GenTokens: ds.GenTokens, DType: numerics.FP16,
	}
	fmt.Printf("offline profiling: %d inputs in %.2fs on this machine\n", *inputs, elapsed.Seconds())
	fmt.Printf("reference cost for the real corpus (%d inputs): A100 %.1f h, H100 %.1f h\n",
		ds.RefProfilingInputs,
		perfmodel.ProfilingHours(perfmodel.A100, w, ds.RefProfilingInputs),
		perfmodel.ProfilingHours(perfmodel.H100, w, ds.RefProfilingInputs))

	// First-token capture on one input.
	f := core.New(m, core.Defaults())
	f.Generate(ds.Inputs[0].Prompt, ds.GenTokens)
	online := f.Bounds()

	fmt.Printf("\n%-28s %-24s %-24s\n", "layer", "offline bounds", "first-token bounds (×2)")
	type row struct {
		key protect.SiteKey
		off protect.Bounds
	}
	var rows []row
	for _, ref := range cfg.LinearLayers() {
		k := protect.SiteKey{Layer: ref, Site: model.SiteLinearOut}
		if b, ok := offline.Get(k); ok {
			rows = append(rows, row{k, b})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i].key.Layer, rows[j].key.Layer
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		return a.Kind < b.Kind
	})
	for _, r := range rows {
		on, ok := online.Get(r.key)
		onStr := "(not protected by FT2)"
		if ok {
			sc := on.Scale(2)
			onStr = fmt.Sprintf("[%.2f, %.2f]", sc.Lo, sc.Hi)
		}
		fmt.Printf("%-28s [%.2f, %.2f]%-8s %s\n", r.key.Layer, r.off.Lo, r.off.Hi, "", onStr)
	}
	fmt.Printf("\nbounds memory: offline %d B, FT2 %d B (fp16 storage)\n",
		offline.MemoryBytes(numerics.FP16), online.MemoryBytes(numerics.FP16))
}
