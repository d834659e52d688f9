package main

import (
	"math"
	"testing"

	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/tensor"
)

// TestChaosParetoGeneratorsFireHooks: every protected chaos-Pareto
// generator must run its protection on the decode it times. A fault hook
// registered before the generator's own hook plants a NaN in a V_PROJ
// output (a kind every protected policy covers) at the first decode step;
// a probe registered after it reads the same element once the protection
// hook has run. Protection repairs the NaN, and only the unprotected
// baseline may leave it in place.
func TestChaosParetoGeneratorsFireHooks(t *testing.T) {
	cfg, err := model.ConfigByName("qwen2-1.5b-sim")
	if err != nil {
		t.Fatal(err)
	}
	target := model.LayerRef{Block: 0, Kind: model.VProj}
	at := func(ctx model.HookCtx) bool {
		return ctx.Layer == target && ctx.Site == model.SiteLinearOut && ctx.Step == 1
	}
	prompt := []int{4, 9, 14, 19, 24, 29}
	for _, pol := range chaosPolicies(cfg.Family) {
		m := model.MustNew(cfg, 1, numerics.FP16)
		m.RegisterHook(func(ctx model.HookCtx, out *tensor.Tensor) {
			if at(ctx) {
				out.Data[0] = float32(math.NaN())
			}
		})
		gen := chaosGenerator(m, pol)
		probed, repaired := false, false
		m.RegisterHook(func(ctx model.HookCtx, out *tensor.Tensor) {
			if at(ctx) {
				probed = true
				repaired = !math.IsNaN(float64(out.Data[0]))
			}
		})
		gen(nil, prompt, 4)
		if !probed {
			t.Fatalf("%s: probe never reached the planted site", pol.name)
		}
		if protected := pol.name != "none"; repaired != protected {
			t.Errorf("%s: NaN repaired = %v, want %v (protection hook not firing?)", pol.name, repaired, protected)
		}
	}
}
