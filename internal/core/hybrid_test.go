package core

import (
	"testing"

	"ft2/internal/arch"
	"ft2/internal/fault"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/protect"
	"ft2/internal/tensor"
)

func hybridCfg(t *testing.T) model.Config {
	t.Helper()
	cfg, err := model.ConfigByName("qwen2-1.5b-sim")
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// ft2OnlyPolicy assigns TierFT2 to exactly the kinds the architectural
// heuristic covers — the policy under which Hybrid must be FT2.
func ft2OnlyPolicy(family model.Family) *protect.Policy {
	p := &protect.Policy{Tiers: make(map[model.LayerKind]protect.Tier)}
	for pt := range arch.Coverage(arch.MethodFT2, family) {
		if pt.Site == model.SiteLinearOut {
			p.Tiers[pt.Kind] = protect.TierFT2
		}
	}
	return p
}

func tokensEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Under an all-FT2 policy the hybrid controller is FT2: identical tokens and
// identical correction counters, with and without an injected fault.
func TestHybridFT2PolicyMatchesFT2(t *testing.T) {
	cfg := hybridCfg(t)
	prompt := []int{4, 9, 14, 19, 24}
	site := fault.Site{Step: 2, Layer: model.LayerRef{Block: 1, Kind: model.VProj}, Elem: 7, Bits: []int{14}}

	run := func(hybrid, faulty bool) ([]int, protect.CorrectionStats) {
		m := model.MustNew(cfg, 11, numerics.FP16)
		if faulty {
			m.RegisterHook(fault.NewInjector(site, numerics.FP16).Hook())
		}
		if hybrid {
			h := NewHybrid(m, Defaults(), ft2OnlyPolicy(cfg.Family), nil)
			return h.Generate(prompt, 14), h.Stats()
		}
		f := New(m, Defaults())
		return f.Generate(prompt, 14), f.Stats()
	}

	for _, faulty := range []bool{false, true} {
		ft2Toks, ft2Stats := run(false, faulty)
		hybToks, hybStats := run(true, faulty)
		if !tokensEqual(ft2Toks, hybToks) {
			t.Errorf("faulty=%v: hybrid tokens %v differ from FT2 %v", faulty, hybToks, ft2Toks)
		}
		if ft2Stats != hybStats {
			t.Errorf("faulty=%v: hybrid stats %+v differ from FT2 %+v", faulty, hybStats, ft2Stats)
		}
	}
}

// An in-range corruption sails through FT2's clamp but the ABFT tier
// recomputes the exact value: the hybrid run lands bit-identical to the
// fault-free golden where FT2-only diverges or silently carries the error.
func TestHybridABFTTierCorrectsInBoundFault(t *testing.T) {
	cfg := hybridCfg(t)
	prompt := []int{4, 9, 14, 19, 24}
	ref := model.LayerRef{Block: 0, Kind: model.DownProj}
	golden := model.MustNew(cfg, 11, numerics.FP16).Generate(prompt, 14)

	// Probe the 2×-scaled bound FT2 would clamp against, then pin the whole
	// output row at 90% of it — a stuck-row burst that is provably in-range
	// for the clamp element-by-element yet wrecks the row checksum. (Single
	// in-bound flips are architecturally masked on a model this small; the
	// burst makes the FT2 blind spot observable.)
	probe := model.MustNew(cfg, 11, numerics.FP16)
	pf := New(probe, Defaults())
	pf.Generate(prompt, 14)
	b, ok := pf.Bounds().Get(protect.SiteKey{Layer: ref, Site: model.SiteLinearOut})
	if !ok {
		t.Fatal("no profiled bounds for the fault site")
	}
	stuck := 0.9 * b.Scale(2).Hi
	if stuck <= 0 {
		t.Fatalf("degenerate bound %g — no room for an in-bound fault", stuck)
	}

	inBoundFault := func(ctx model.HookCtx, out *tensor.Tensor) {
		if ctx.Step == 2 && ctx.Site == model.SiteLinearOut && ctx.Layer == ref {
			for i := range out.Data {
				out.Data[i] = stuck
			}
		}
	}

	policy := ft2OnlyPolicy(cfg.Family)
	policy.Tiers[model.DownProj] = protect.TierABFTFT2
	m := model.MustNew(cfg, 11, numerics.FP16)
	m.RegisterHook(inBoundFault)
	h := NewHybrid(m, Defaults(), policy, nil)
	got := h.Generate(prompt, 14)
	c := h.DrainCounts()
	if c.ABFT.Detected == 0 || c.ABFT.Corrected == 0 {
		t.Fatalf("abft tier never repaired the in-bound fault: %+v", c.ABFT)
	}
	if !tokensEqual(golden, got) {
		t.Errorf("hybrid run diverged from golden: %v vs %v", got, golden)
	}
	if c2 := h.DrainCounts(); c2 != (HybridCounts{}) {
		t.Errorf("second drain not zero: %+v", c2)
	}

	// Control: FT2 alone passes the in-range corruption through at the fault
	// site (it may clamp downstream fallout, but cannot restore the exact
	// value), so the generation diverges from golden — the gap the ABFT tier
	// closes.
	m2 := model.MustNew(cfg, 11, numerics.FP16)
	m2.RegisterHook(inBoundFault)
	f := New(m2, Defaults())
	ft2Only := f.Generate(prompt, 14)
	if tokensEqual(golden, ft2Only) {
		t.Error("stuck-row fault masked under FT2-only — the control lost its meaning")
	}
}

// A DMR-tier kind gets duplicated execution: a transient fault there is
// fixed exactly and counted through DrainCounts.
func TestHybridDMRTier(t *testing.T) {
	cfg := hybridCfg(t)
	prompt := []int{4, 9, 14, 19, 24}
	golden := model.MustNew(cfg, 11, numerics.FP16).Generate(prompt, 14)

	policy := &protect.Policy{Tiers: map[model.LayerKind]protect.Tier{
		model.QProj: protect.TierDMR,
	}}
	site := fault.Site{Step: 1, Layer: model.LayerRef{Block: 0, Kind: model.QProj}, Elem: 2, Bits: []int{14}}
	m := model.MustNew(cfg, 11, numerics.FP16)
	m.RegisterHook(fault.NewInjector(site, numerics.FP16).Hook())
	h := NewHybrid(m, Defaults(), policy, nil)
	got := h.Generate(prompt, 14)
	if c := h.DrainCounts(); c.DMRFixed == 0 {
		t.Fatalf("dmr tier never fixed the fault: %+v", c)
	}
	if !tokensEqual(golden, got) {
		t.Errorf("dmr-protected run diverged from golden: %v vs %v", got, golden)
	}
}

// Fork-state round-tripping goes through the FT2 tier, so a parked
// policy-protected session resumes bit-identically (the serving contract).
func TestHybridForkStateRoundTrip(t *testing.T) {
	cfg := hybridCfg(t)
	m := model.MustNew(cfg, 11, numerics.FP16)
	policy := ft2OnlyPolicy(cfg.Family)
	h := NewHybrid(m, Defaults(), policy, nil)
	h.Generate([]int{4, 9, 14, 19}, 6)
	st := h.CaptureForkState()
	if st.Bounds == nil {
		t.Fatal("fork state missing bounds")
	}
	h.Reset()
	h.ResumeFork(st)
	if h.ft2.Bounds() != st.Bounds {
		t.Error("ResumeFork must install the captured bounds store")
	}
}

// A controller's Generate runs its hook for that call only: protection
// happens (bounds get captured) yet nothing stays registered on the model,
// and once warm a GenerateInto with a reused dst allocates nothing — the
// call-scoped hook list lives in the model's scratch arena.
func TestControllerGenerateIntoAllocFree(t *testing.T) {
	cfg := hybridCfg(t)
	m := model.MustNew(cfg, 11, numerics.FP16)
	policy := ft2OnlyPolicy(cfg.Family)
	policy.Tiers[model.DownProj] = protect.TierABFTFT2
	policy.Tiers[model.QProj] = protect.TierDMR
	f := New(m, Defaults())
	h := NewHybrid(m, Defaults(), policy, nil)
	prompt := []int{4, 9, 14, 19}
	dst := make([]int, 0, 8)
	for name, gen := range map[string]func(){
		"FT2":    func() { dst = f.GenerateInto(dst, prompt, 8) },
		"Hybrid": func() { dst = h.GenerateInto(dst, prompt, 8) },
	} {
		gen() // warm the arena and the bounds store
		if allocs := testing.AllocsPerRun(20, gen); allocs != 0 {
			t.Errorf("%s.GenerateInto: %v allocs per run, want 0", name, allocs)
		}
		if m.HookCount() != 0 {
			t.Errorf("%s.GenerateInto left %d hooks registered", name, m.HookCount())
		}
	}
	if f.Bounds().Len() == 0 || h.ft2.Bounds().Len() == 0 {
		t.Error("a controller's GenerateInto ran without its hook")
	}
}
