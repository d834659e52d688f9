package core

import (
	"testing"

	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/protect"
	"ft2/internal/tensor"
)

func testModel(t *testing.T, name string) *model.Model {
	t.Helper()
	cfg, err := model.ConfigByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return model.MustNew(cfg, 42, numerics.FP16)
}

func TestDefaults(t *testing.T) {
	d := Defaults()
	if d.ScaleFactor != 2 || d.Mode != protect.ClipToBound || !d.FirstTokenNaNCorrection || d.ProtectAllLayers {
		t.Errorf("Defaults() = %+v does not match the paper configuration", d)
	}
}

func TestAttachRejectsBadScale(t *testing.T) {
	m := testModel(t, "opt-2.7b-sim")
	defer func() {
		if recover() == nil {
			t.Error("scale < 1 must panic")
		}
	}()
	New(m, Options{ScaleFactor: 0.5})
}

func TestFT2FaultFreeTransparency(t *testing.T) {
	// With scaled bounds, FT2 must not change fault-free generations.
	for _, name := range []string{"opt-2.7b-sim", "gptj-6b-sim", "llama2-7b-sim"} {
		m := testModel(t, name)
		prompt := []int{4, 9, 14, 19, 24}
		clean := m.Generate(prompt, 12)

		f := New(m, Defaults())
		protected := f.Generate(prompt, 12)
		for i := range clean {
			if clean[i] != protected[i] {
				t.Errorf("%s: FT2 changed a fault-free generation at %d: %v vs %v", name, i, clean, protected)
				break
			}
		}
	}
}

func TestFT2CapturesBoundsDuringFirstToken(t *testing.T) {
	m := testModel(t, "llama2-7b-sim")
	f := New(m, Defaults())
	f.Generate([]int{4, 5, 6, 7}, 6)
	// Llama family: 4 critical kinds per block.
	want := m.Cfg.Blocks * 4
	if got := f.Bounds().Len(); got != want {
		t.Errorf("captured bounds for %d sites, want %d", got, want)
	}
	if f.ProtectedSiteCount() != want {
		t.Errorf("ProtectedSiteCount = %d, want %d", f.ProtectedSiteCount(), want)
	}
}

func TestFT2BoundsResetPerInference(t *testing.T) {
	m := testModel(t, "opt-2.7b-sim")
	f := New(m, Defaults())
	f.Generate([]int{4, 5, 6}, 4)
	k := protect.SiteKey{Layer: model.LayerRef{Block: 0, Kind: model.VProj}, Site: model.SiteLinearOut}
	b1, ok1 := f.Bounds().Get(k)
	f.Generate([]int{40, 50, 60, 70, 80}, 4)
	b2, ok2 := f.Bounds().Get(k)
	if !ok1 || !ok2 {
		t.Fatal("bounds missing")
	}
	if b1 == b2 {
		t.Log("note: identical bounds across different prompts (possible but unlikely)")
	}
}

func TestFT2CorrectsInjectedFault(t *testing.T) {
	m := testModel(t, "opt-6.7b-sim")
	prompt := []int{4, 9, 14, 19}
	clean := m.Generate(prompt, 10)

	// Injector: huge value in a critical layer during a following token.
	m.RegisterHook(func(ctx model.HookCtx, out *tensor.Tensor) {
		if ctx.Layer == (model.LayerRef{Block: 2, Kind: model.OutProj}) && ctx.Step == 1 && ctx.Site == model.SiteLinearOut {
			out.Data[0] = 48000
		}
	})
	corrupted := m.Generate(prompt, 10)

	f := New(m, Defaults()) // its hook runs after the registered injector
	protected := f.Generate(prompt, 10)
	m.ClearHooks()

	diff := func(a, b []int) bool {
		for i := range a {
			if a[i] != b[i] {
				return true
			}
		}
		return false
	}
	if !diff(clean, corrupted) {
		t.Skip("fault masked without protection on this seed")
	}
	if diff(clean, protected) {
		t.Errorf("FT2 failed to mask the fault: clean=%v protected=%v", clean, protected)
	}
	if f.Stats().OutOfBound == 0 {
		t.Error("FT2 should have clipped the injected value")
	}
}

func TestFT2CorrectsNaNDuringFirstToken(t *testing.T) {
	m := testModel(t, "opt-6.7b-sim")
	prompt := []int{4, 9, 14, 19}
	clean := m.Generate(prompt, 8)

	nan := float32(0)
	nan /= nan // quiet NaN without importing math
	m.RegisterHook(func(ctx model.HookCtx, out *tensor.Tensor) {
		if ctx.Layer == (model.LayerRef{Block: 1, Kind: model.FC2}) && ctx.Step == 0 && ctx.Site == model.SiteLinearOut {
			out.Data[3] = nan
		}
	})
	f := New(m, Defaults())
	protected := f.Generate(prompt, 8)
	if f.FirstTokenNaNCount() == 0 {
		t.Error("FT2 should have corrected the first-token NaN")
	}
	m.ClearHooks()

	same := true
	for i := range clean {
		if clean[i] != protected[i] {
			same = false
		}
	}
	if !same {
		t.Log("first-token NaN changed output even after correction (counted as first-token SDC risk, acceptable)")
	}
}

func TestFT2AllLayerCoverage(t *testing.T) {
	m := testModel(t, "opt-2.7b-sim")
	opts := Defaults()
	opts.ProtectAllLayers = true
	f := New(m, opts)
	want := len(m.Cfg.LinearLayers())
	if f.ProtectedSiteCount() != want {
		t.Errorf("all-layer coverage = %d sites, want %d", f.ProtectedSiteCount(), want)
	}
	f.Generate([]int{4, 5, 6}, 4)
	if f.Bounds().Len() != want {
		t.Errorf("all-layer profiling captured %d, want %d", f.Bounds().Len(), want)
	}
}

func TestFT2MemoryOverheadBytes(t *testing.T) {
	m := testModel(t, "llama2-7b-sim")
	f := New(m, Defaults())
	f.Generate([]int{4, 5, 6}, 4)
	bytes := f.Bounds().MemoryBytes(numerics.FP16)
	// 16 protected layers × 2 values × 2 bytes = 64 bytes on the scaled-down
	// model; the real llama2-7b (32 blocks × 4) would be 512 — the paper's
	// upper end.
	if bytes != m.Cfg.Blocks*4*4 {
		t.Errorf("memory overhead %d bytes", bytes)
	}
	refBytes := 32 * 4 * 2 * 2
	if refBytes != 512 {
		t.Errorf("reference-model memory accounting wrong: %d", refBytes)
	}
}

func TestFT2ScaleFactorWidensEffectiveBounds(t *testing.T) {
	m := testModel(t, "vicuna-7b-sim")
	prompt := []int{4, 9, 14, 19, 24, 29}

	corrections := func(scale float32) int {
		opts := Defaults()
		opts.ScaleFactor = scale
		f := New(m, opts)
		f.Generate(prompt, 24)
		return f.Stats().Total()
	}
	// Fault-free corrections can only decrease as the scale grows.
	c1 := corrections(1)
	c2 := corrections(2)
	c4 := corrections(4)
	if c2 > c1 || c4 > c2 {
		t.Errorf("corrections must be monotone in scale: %d, %d, %d", c1, c2, c4)
	}
}

func TestFT2ClipModeZeroStillProtects(t *testing.T) {
	m := testModel(t, "opt-6.7b-sim")
	opts := Defaults()
	opts.Mode = protect.ClipToZero
	f := New(m, opts)
	out := f.Generate([]int{4, 5, 6, 7}, 10)
	if len(out) != 10 {
		t.Fatal("generation failed under clip-to-zero")
	}
}
