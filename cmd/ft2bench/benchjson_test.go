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
// registered on the model plants a NaN in a V_PROJ output (a kind every
// protected policy covers) at the first decode step; the generator's own
// protection hook runs after it for the call. A probe reads the input of
// the same block's OUT_PROJ, the attention context that V output feeds:
// protection repairs the NaN before attention, so the context stays
// finite, and only the unprotected baseline lets the NaN through.
func TestChaosParetoGeneratorsFireHooks(t *testing.T) {
	cfg, err := model.ConfigByName("qwen2-1.5b-sim")
	if err != nil {
		t.Fatal(err)
	}
	target := model.LayerRef{Block: 0, Kind: model.VProj}
	probeAt := model.LayerRef{Block: 0, Kind: model.OutProj}
	at := func(ctx model.HookCtx, ref model.LayerRef) bool {
		return ctx.Layer == ref && ctx.Site == model.SiteLinearOut && ctx.Step == 1
	}
	prompt := []int{4, 9, 14, 19, 24, 29}
	for _, pol := range chaosPolicies(cfg.Family) {
		m := model.MustNew(cfg, 1, numerics.FP16)
		probed, repaired := false, false
		m.RegisterHook(func(ctx model.HookCtx, out *tensor.Tensor) {
			if at(ctx, target) {
				out.Data[0] = float32(math.NaN())
			}
			if at(ctx, probeAt) {
				probed, repaired = true, true
				for _, v := range ctx.Input.Data {
					if math.IsNaN(float64(v)) {
						repaired = false
					}
				}
			}
		})
		chaosGenerator(m, pol)(nil, prompt, 4)
		if !probed {
			t.Fatalf("%s: probe never reached the planted site", pol.name)
		}
		if protected := pol.name != "none"; repaired != protected {
			t.Errorf("%s: NaN repaired = %v, want %v (protection hook not firing?)", pol.name, repaired, protected)
		}
	}
}
