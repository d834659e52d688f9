package experiments

import (
	"context"
	"time"

	"ft2/internal/arch"
	"ft2/internal/campaign"
	"ft2/internal/core"
	"ft2/internal/data"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/protect"
	"ft2/internal/report"
)

// AblationClipMode compares FT2's clip-to-bound against the CNN-era
// clip-to-zero on FT2's coverage (Take-away #8: generative LLMs have
// legitimate large activations, so clipping to zero causes deviations).
func AblationClipMode(ctx context.Context, p Params) (*report.Table, error) {
	t := report.NewTable("Ablation: out-of-bound correction target (vicuna-7b-sim, squad-sim, EXP faults)",
		"Clip mode", "SDC %", "±95% CI")
	for _, mode := range []protect.ClipMode{protect.ClipToBound, protect.ClipToZero} {
		res, err := cell(ctx, p, "vicuna-7b-sim", "squad-sim", numerics.ExponentBit, arch.MethodFT2,
			func(s *campaign.Spec) { s.FT2Opts.Mode = mode })
		if err != nil {
			return partialOnCancel(t, err)
		}
		t.AddRow(mode.String(), res.SDC.Percent(), res.SDC.CI95()*100)
	}
	return t, nil
}

// AblationCoverage compares critical-only protection with all-layer
// protection: reliability and measured overhead (Sec. 4.1's ~2× overhead
// argument for the naïve configuration).
func AblationCoverage(ctx context.Context, p Params) (*report.Table, error) {
	t := report.NewTable("Ablation: protection coverage (llama2-7b-sim, squad-sim, EXP faults)",
		"Coverage", "SDC %", "±95% CI", "Protected layers", "Hook time ms/gen")
	for _, all := range []bool{false, true} {
		res, err := cell(ctx, p, "llama2-7b-sim", "squad-sim", numerics.ExponentBit, arch.MethodFT2,
			func(s *campaign.Spec) { s.FT2Opts.ProtectAllLayers = all })
		if err != nil {
			return partialOnCancel(t, err)
		}
		label := "critical layers only (FT2)"
		if all {
			label = "all linear layers"
		}
		layers, ms, err := coverageCost(p, all)
		if err != nil {
			return nil, err
		}
		t.AddRow(label, res.SDC.Percent(), res.SDC.CI95()*100, layers, ms)
	}
	return t, nil
}

// coverageCost measures the per-generation wall-clock of FT2's hook with
// the given coverage.
func coverageCost(p Params, all bool) (int, float64, error) {
	cfg, err := model.ConfigByName("llama2-7b-sim")
	if err != nil {
		return 0, 0, err
	}
	ds := data.SquadSim(1)
	m, err := model.New(cfg, p.Seed, numerics.FP16)
	if err != nil {
		return 0, 0, err
	}
	opts := core.Defaults()
	opts.ProtectAllLayers = all
	f := core.New(m, opts)
	f.Generate(ds.Inputs[0].Prompt, ds.GenTokens) // warm-up
	reps := 5
	start := time.Now()
	for i := 0; i < reps; i++ {
		f.Generate(ds.Inputs[0].Prompt, ds.GenTokens)
	}
	return f.ProtectedSiteCount(), time.Since(start).Seconds() * 1000 / float64(reps), nil
}
