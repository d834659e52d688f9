// Package core assembles the paper's contribution — the FT2 methodology:
//
//  1. identify critical layers from the architecture alone (the heuristic of
//     Section 4.1.2, implemented in internal/arch);
//  2. during the first token's prefill pass, correct NaN and record each
//     critical layer's activation range (Section 4.2);
//  3. for every following token, apply range restriction with the recorded
//     bounds scaled by a factor (default 2), clipping out-of-bound values to
//     the bound and NaN to zero (Section 4.3).
//
// No offline profiling, no training data: everything happens inside a single
// inference.
package core

import (
	"fmt"

	"ft2/internal/arch"
	"ft2/internal/model"
	"ft2/internal/protect"
	"ft2/internal/tensor"
)

// Options tune FT2; the zero value plus Defaults() reproduces the paper's
// configuration. The knobs exist for the ablation studies (Fig. 9 scaling
// sweep, clip-mode and coverage ablations).
type Options struct {
	// ScaleFactor widens the first-token bounds (paper default 2).
	ScaleFactor float32
	// Mode selects the out-of-bound correction target (paper: ClipToBound).
	Mode protect.ClipMode
	// FirstTokenNaNCorrection keeps NaN correction active while profiling
	// the first token (paper: on; Fig. 11 ablates it).
	FirstTokenNaNCorrection bool
	// ProtectAllLayers covers every linear layer instead of only the
	// critical ones (the "naïve" ~2× overhead configuration of Section 4.1).
	ProtectAllLayers bool
}

// Defaults returns the paper's FT2 configuration.
func Defaults() Options {
	return Options{
		ScaleFactor:             2,
		Mode:                    protect.ClipToBound,
		FirstTokenNaNCorrection: true,
	}
}

// FT2 is an online protector attached to a model. Use Generate (not the
// model's) so per-inference bounds reset correctly.
type FT2 struct {
	m    *model.Model
	opts Options
	prof *protect.FirstTokenProfiler
	// bounds is the store the protection hook consults. It normally points
	// at the profiler's own store (written during the first token, read
	// afterwards); a forked continuation swaps in a shared read-only store
	// captured from an earlier run's prefill — decode steps never write it.
	bounds *protect.Store
	stats  protect.CorrectionStats
	// byKind breaks the following-token corrections down by the layer kind
	// they fired on — the per-layer-kind protection telemetry the serving
	// layer exports. Fixed-size array: updating it on the hook hot path
	// never allocates.
	byKind [model.NumLayerKinds]protect.CorrectionStats
	handle model.HookHandle
	cover  map[arch.CoveragePoint]bool
}

// New builds an FT2 controller for the model without registering its hook;
// callers that interleave FT2 with other hooks (the campaign runner puts
// the fault injector first) register it with Install. The controller is
// reusable across inferences — Reset or ResumeFork rearm it.
func New(m *model.Model, opts Options) *FT2 {
	if opts.ScaleFactor < 1 {
		panic(fmt.Sprintf("core: scale factor %g < 1 would tighten bounds", opts.ScaleFactor))
	}
	f := &FT2{
		m:     m,
		opts:  opts,
		prof:  protect.NewFirstTokenProfiler(),
		cover: arch.Coverage(arch.MethodFT2, m.Cfg.Family),
	}
	f.bounds = f.prof.Store
	if opts.ProtectAllLayers {
		f.cover = make(map[arch.CoveragePoint]bool)
		for _, k := range m.Cfg.Family.LayerKinds() {
			f.cover[arch.CoveragePoint{Kind: k, Site: model.SiteLinearOut}] = true
		}
	}
	return f
}

// NewWithKinds builds an FT2 controller covering exactly the given layer
// kinds (at their linear-output sites) instead of the family's architectural
// criticality heuristic — the constructor adaptive policies use to aim the
// clamp at their FT2-tier kinds. Coverage is a constructor concern so that
// Options stays a comparable value type.
func NewWithKinds(m *model.Model, opts Options, kinds ...model.LayerKind) *FT2 {
	f := New(m, opts)
	f.cover = make(map[arch.CoveragePoint]bool, len(kinds))
	for _, k := range kinds {
		f.cover[arch.CoveragePoint{Kind: k, Site: model.SiteLinearOut}] = true
	}
	return f
}

// Attach is New followed by Install: it registers FT2's forward hook on the
// model and returns the controller. Call Detach to remove it.
func Attach(m *model.Model, opts Options) *FT2 {
	f := New(m, opts)
	f.Install()
	return f
}

// Install registers FT2's forward hook on the model (after any hooks the
// caller registered first).
func (f *FT2) Install() { f.handle = f.m.RegisterHook(f.hook) }

// Hook returns the controller's forward hook without registering it, for
// per-session installation in batched decode (model.BatchItem.Hooks): each
// session's controller observes and corrects only that session's rows while
// every controller shares the same read-only bounds store.
func (f *FT2) Hook() model.Hook { return f.hook }

// Detach removes FT2's hook from the model.
func (f *FT2) Detach() { f.m.RemoveHook(f.handle) }

// Reset rearms the controller for a fresh full inference: per-inference
// bounds and correction counters clear, and the hook profiles the next
// first token into the controller's own store again.
func (f *FT2) Reset() {
	f.prof.Reset()
	f.bounds = f.prof.Store
	f.stats = protect.CorrectionStats{}
	f.byKind = [model.NumLayerKinds]protect.CorrectionStats{}
}

// ForkState is the protection-side state FT2 carries across decode steps,
// captured so a forked continuation reproduces a full run bit-for-bit:
// the bounds recorded from the inference's prefill, the first-token NaN
// correction count, and the following-token correction counters accumulated
// so far.
type ForkState struct {
	Bounds        *protect.Store
	FirstTokenNaN int
	Stats         protect.CorrectionStats
	// ByKind carries the per-layer-kind correction breakdown. Callers that
	// only need the aggregate counters bit-identical (the campaign's golden
	// checkpoints) may leave it zero; the serving layer round-trips it so a
	// session's per-kind telemetry survives being parked and resumed.
	ByKind [model.NumLayerKinds]protect.CorrectionStats
}

// CaptureForkState snapshots the controller's state (the bounds are deep
// copied, so the capture stays valid across later Resets).
func (f *FT2) CaptureForkState() ForkState {
	return ForkState{
		Bounds:        f.bounds.Clone(),
		FirstTokenNaN: f.prof.NaNCorrected,
		Stats:         f.stats,
		ByKind:        f.byKind,
	}
}

// ResumeFork installs a captured state for a forked continuation that
// starts at a decode step ≥ 1. The hook then reads st.Bounds without ever
// writing it (only the first-token pass writes bounds), so one captured
// state may back many concurrent forks.
func (f *FT2) ResumeFork(st ForkState) {
	f.bounds = st.Bounds
	f.prof.NaNCorrected = st.FirstTokenNaN
	f.stats = st.Stats
	f.byKind = st.ByKind
}

// Stats returns the corrections applied since attach (following tokens
// only; first-token NaN corrections are reported by FirstTokenNaNCount).
func (f *FT2) Stats() protect.CorrectionStats { return f.stats }

// StatsByKind breaks the following-token corrections down by the layer kind
// they fired on, indexed by model.LayerKind.
func (f *FT2) StatsByKind() [model.NumLayerKinds]protect.CorrectionStats { return f.byKind }

// FirstTokenNaNCount returns NaNs corrected during the last inference's
// first-token pass.
func (f *FT2) FirstTokenNaNCount() int { return f.prof.NaNCorrected }

// Bounds exposes the raw (unscaled) bounds the hook currently consults:
// those captured from the last inference's first token, or the fork-state
// bounds after ResumeFork.
func (f *FT2) Bounds() *protect.Store { return f.bounds }

// ProtectedSiteCount returns how many concrete layer instances FT2 protects
// on this model.
func (f *FT2) ProtectedSiteCount() int {
	n := 0
	for b := 0; b < f.m.Cfg.Blocks; b++ {
		for _, k := range f.m.Cfg.Family.LayerKinds() {
			if f.cover[arch.CoveragePoint{Kind: k, Site: model.SiteLinearOut}] {
				n++
			}
		}
	}
	return n
}

// Generate runs a protected inference: bounds reset, first token profiled,
// following tokens range-restricted. The hook must be registered on the
// model (Attach, or New followed by Install); Generate panics otherwise,
// since the run would silently go unprotected.
func (f *FT2) Generate(prompt []int, n int) []int {
	mustBeInstalled(f.m, f.handle, "FT2")
	f.Reset()
	return f.m.Generate(prompt, n)
}

// GenerateInto is Generate writing the decoded tokens into dst[:0]; with a
// reused dst the protected steady-state generation is allocation-free (the
// bounds store clears in place, see protect.Store.Reset).
func (f *FT2) GenerateInto(dst []int, prompt []int, n int) []int {
	mustBeInstalled(f.m, f.handle, "FT2")
	f.Reset()
	return f.m.GenerateInto(dst, prompt, n)
}

// mustBeInstalled panics when a controller's Generate runs without its hook
// registered on the model.
func mustBeInstalled(m *model.Model, h model.HookHandle, name string) {
	if !m.HookRegistered(h) {
		panic("core: " + name + ".Generate without its hook registered on the model (call Install first)")
	}
}

func (f *FT2) hook(ctx model.HookCtx, out *tensor.Tensor) {
	if !f.cover[arch.CoveragePoint{Kind: ctx.Layer.Kind, Site: ctx.Site}] {
		return
	}
	key := protect.SiteKey{Layer: ctx.Layer, Site: ctx.Site}
	if ctx.FirstToken {
		if f.opts.FirstTokenNaNCorrection {
			f.prof.NaNCorrected += protect.CorrectNaNOnly(out.Data)
		}
		f.bounds.Observe(key, out)
		return
	}
	b, ok := f.bounds.Get(key)
	if !ok {
		// No bounds captured (should not happen in a Generate-driven run);
		// fall back to NaN-only correction.
		n := protect.CorrectNaNOnly(out.Data)
		f.stats.NaN += n
		f.byKind[ctx.Layer.Kind].NaN += n
		return
	}
	st := protect.ClampCorrect(out.Data, b.Scale(f.opts.ScaleFactor), f.opts.Mode, true)
	f.stats.OutOfBound += st.OutOfBound
	f.stats.NaN += st.NaN
	f.byKind[ctx.Layer.Kind].OutOfBound += st.OutOfBound
	f.byKind[ctx.Layer.Kind].NaN += st.NaN
}
