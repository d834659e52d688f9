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

// ExtensionDMR compares FT2 against duplication in place (DMR), the
// high-overhead 0%-SDC alternative of the paper's limitations section:
// reliability under EXP faults plus measured generation overhead.
func ExtensionDMR(ctx context.Context, p Params) (*report.Table, error) {
	const modelName, dsName = "llama2-7b-sim", "squad-sim"
	t := report.NewTable("Extension: FT2 vs duplication in place (llama2-7b-sim, squad-sim, EXP faults)",
		"Protection", "SDC %", "±95% CI", "Overhead % vs unprotected")

	baseMS, err := genCost(p, modelName, dsName, nil)
	if err != nil {
		return nil, err
	}

	unprot, err := cell(ctx, p, modelName, dsName, numerics.ExponentBit, arch.MethodNone, nil)
	if err != nil {
		return partialOnCancel(t, err)
	}
	t.AddRow("No Protection", unprot.SDC.Percent(), unprot.SDC.CI95()*100, 0.0)

	ft2Res, err := cell(ctx, p, modelName, dsName, numerics.ExponentBit, arch.MethodFT2, nil)
	if err != nil {
		return partialOnCancel(t, err)
	}
	ft2MS, err := genCost(p, modelName, dsName, func(m *model.Model) model.Hook {
		return core.New(m, core.Defaults()).Hook()
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("FT2", ft2Res.SDC.Percent(), ft2Res.SDC.CI95()*100, (ft2MS-baseMS)/baseMS*100)

	dmrRes, err := cell(ctx, p, modelName, dsName, numerics.ExponentBit, arch.MethodNone,
		func(s *campaign.Spec) { s.UseDMR = true })
	if err != nil {
		return partialOnCancel(t, err)
	}
	dmrMS, err := genCost(p, modelName, dsName, func(m *model.Model) model.Hook {
		return protect.NewDMR(m).Hook()
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("DMR (duplication in place)", dmrRes.SDC.Percent(), dmrRes.SDC.CI95()*100,
		(dmrMS-baseMS)/baseMS*100)
	return t, nil
}

// genCost measures ms per generation, with the hook hookFor builds on the
// model running in every generation when hookFor is non-nil.
func genCost(p Params, modelName, dsName string, hookFor func(*model.Model) model.Hook) (float64, error) {
	cfg, err := model.ConfigByName(modelName)
	if err != nil {
		return 0, err
	}
	ds, err := data.ByName(dsName, 1)
	if err != nil {
		return 0, err
	}
	m, err := model.New(cfg, p.Seed, numerics.FP16)
	if err != nil {
		return 0, err
	}
	var hooks []model.Hook
	if hookFor != nil {
		hooks = append(hooks, hookFor(m))
	}
	prompt := ds.Inputs[0].Prompt
	m.Generate(prompt, ds.GenTokens, hooks...) // warm-up
	reps := 5
	start := time.Now()
	for i := 0; i < reps; i++ {
		m.Generate(prompt, ds.GenTokens, hooks...)
	}
	return time.Since(start).Seconds() * 1000 / float64(reps), nil
}
