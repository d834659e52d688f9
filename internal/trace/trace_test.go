package trace

import (
	"math"
	"strings"
	"testing"

	"ft2/internal/core"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/tensor"
)

func testModel(t *testing.T) *model.Model {
	t.Helper()
	cfg, err := model.ConfigByName("opt-2.7b-sim")
	if err != nil {
		t.Fatal(err)
	}
	return model.MustNew(cfg, 42, numerics.FP16)
}

func TestFaultFreeRunHasNoDeviation(t *testing.T) {
	m := testModel(t)
	devs, err := Run(m, []int{4, 5, 6, 7}, 6, func() {})
	if err != nil {
		t.Fatal(err)
	}
	if len(devs) == 0 {
		t.Fatal("no deviations recorded")
	}
	for _, d := range devs {
		if d.RelL2 != 0 || d.MaxAbs != 0 || d.NaNCount != 0 {
			t.Fatalf("fault-free run deviates at %v: %+v", d.Layer, d)
		}
	}
	if len(Affected(devs, 0.001)) != 0 {
		t.Error("Affected must be empty for a fault-free run")
	}
}

func TestInjectedFaultPropagatesForward(t *testing.T) {
	m := testModel(t)
	site := model.LayerRef{Block: 0, Kind: model.FC2}
	devs, err := Run(m, []int{4, 5, 6, 7}, 6, func() {
		m.RegisterHook(func(ctx model.HookCtx, out *tensor.Tensor) {
			if ctx.Layer == site && ctx.Step == 1 && ctx.Site == model.SiteLinearOut {
				out.Data[0] = 30000
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	affected := Affected(devs, 1e-3)
	if len(affected) == 0 {
		t.Fatal("a huge fault must produce deviations")
	}
	// No deviation may appear before the fault step.
	for _, d := range affected {
		if d.Step < 1 {
			t.Errorf("deviation before the fault step: %+v", d)
		}
	}
	// The faulted layer itself must show the original corruption magnitude.
	foundOrigin := false
	for _, d := range affected {
		if d.Layer == site && d.Step == 1 && d.Site == model.SiteLinearOut {
			foundOrigin = true
			if d.MaxAbs < 20000 {
				t.Errorf("origin deviation too small: %g", d.MaxAbs)
			}
		}
	}
	if !foundOrigin {
		t.Error("origin site missing from the trace")
	}
	// Block 1 (downstream) must be affected at the fault step or later.
	downstream := false
	for _, d := range affected {
		if d.Layer.Block == 1 {
			downstream = true
		}
	}
	if !downstream {
		t.Error("fault did not propagate to the next block")
	}
}

func TestNaNPropagationCounted(t *testing.T) {
	m := testModel(t)
	nan := float32(math.NaN())
	devs, err := Run(m, []int{4, 5, 6}, 4, func() {
		m.RegisterHook(func(ctx model.HookCtx, out *tensor.Tensor) {
			if ctx.Layer == (model.LayerRef{Block: 0, Kind: model.FC1}) && ctx.Step == 1 && ctx.Site == model.SiteLinearOut {
				out.Data[2] = nan
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	totalNaN := 0
	for _, d := range devs {
		totalNaN += d.NaNCount
	}
	if totalNaN == 0 {
		t.Error("NaN injection must surface NaN counts in the trace")
	}
}

func TestProtectionLimitsPropagation(t *testing.T) {
	m := testModel(t)
	prompt := []int{4, 5, 6, 7}
	inject := func() {
		m.RegisterHook(func(ctx model.HookCtx, out *tensor.Tensor) {
			if ctx.Layer == (model.LayerRef{Block: 0, Kind: model.OutProj}) && ctx.Step == 1 && ctx.Site == model.SiteLinearOut {
				out.Data[0] = 30000
			}
		})
	}
	unprotected, err := Run(m, prompt, 6, inject)
	if err != nil {
		t.Fatal(err)
	}
	protected, err := Run(m, prompt, 6, func() {
		inject()
		m.RegisterHook(core.New(m, core.Defaults()).Hook()) // cleared by Run's ClearHooks afterwards
	})
	if err != nil {
		t.Fatal(err)
	}
	maxRel := func(devs []Deviation, block int) float64 {
		worst := 0.0
		for _, d := range devs {
			if d.Layer.Block == block && d.RelL2 > worst {
				worst = d.RelL2
			}
		}
		return worst
	}
	// Downstream corruption must be materially smaller with FT2 attached.
	if maxRel(protected, 1) >= maxRel(unprotected, 1) {
		t.Errorf("FT2 did not reduce downstream corruption: %g vs %g",
			maxRel(protected, 1), maxRel(unprotected, 1))
	}
}

func TestSummarize(t *testing.T) {
	m := testModel(t)
	devs, err := Run(m, []int{4, 5, 6}, 4, func() {
		m.RegisterHook(func(ctx model.HookCtx, out *tensor.Tensor) {
			if ctx.Layer == (model.LayerRef{Block: 0, Kind: model.VProj}) && ctx.Step == 1 && ctx.Site == model.SiteLinearOut {
				out.Data[0] = 9000
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(Affected(devs, 1e-4), m.Cfg.Family)
	if !strings.Contains(s, "V_PROJ") {
		t.Errorf("summary missing the origin layer:\n%s", s)
	}
	if !strings.Contains(s, "max rel-L2") {
		t.Error("summary header missing")
	}
}

func TestCompareShapeDrift(t *testing.T) {
	m := testModel(t)
	tr := New()
	m.Generate([]int{4, 5, 6}, 3, tr.RecordHook())
	if tr.SiteCount() == 0 {
		t.Fatal("no snapshots recorded")
	}
	var devs []Deviation
	var cmpErr error
	m.Generate([]int{4, 5, 6, 7, 8}, 3, tr.CompareHook(&devs, &cmpErr)) // longer prompt: shapes drift
	if cmpErr == nil {
		t.Error("shape drift must be reported")
	}
}
