package core

import (
	"ft2/internal/abft"
	"ft2/internal/model"
	"ft2/internal/protect"
	"ft2/internal/tensor"
)

// Hybrid drives an adaptive per-layer-kind protection policy on one model:
// each layer kind gets the tier its vulnerability profile earned —
// FT2 range restriction, ABFT checksum verify-and-repair, DMR duplicated
// execution, a stacked abft+ft2, or nothing. One dispatching forward hook
// runs the exact-correction tiers (ABFT, DMR) first and the FT2 clamp last,
// so recomputation repairs transient faults precisely and the clamp still
// bounds whatever persistent weight/KV corruption leaves behind.
//
// Hybrid presents the same controller surface as FT2 (Install / Hook /
// Reset / fork-state round-tripping), so the serving scheduler can park and
// resume policy-protected sessions exactly like FT2-protected ones. The
// fork state is the FT2 portion — the checker and DMR tiers are stateless
// per step apart from their counters, which DrainCounts hands to the owner.
type Hybrid struct {
	m      *model.Model
	policy *protect.Policy
	ft2    *FT2
	chk    *abft.LinearChecker
	dmr    *protect.DMR
	handle model.HookHandle

	chkHook model.Hook
	dmrHook model.Hook
	ft2Hook model.Hook
}

// HybridCounts is the since-last-drain telemetry of the exact-correction
// tiers.
type HybridCounts struct {
	ABFT     abft.Stats
	DMRFixed int64
}

// NewHybrid builds a policy-driven controller. refs carries the build-time
// ABFT reference sums; pass nil to capture them from m now (the model must
// still be pristine). Like New, the hook is not yet registered — use Install
// or Hook.
func NewHybrid(m *model.Model, opts Options, policy *protect.Policy, refs *abft.RefSums) *Hybrid {
	h := &Hybrid{m: m, policy: policy}
	h.ft2 = NewWithKinds(m, opts, policy.Kinds(protect.TierFT2, protect.TierABFTFT2)...)
	h.ft2Hook = h.ft2.Hook()
	if abftKinds := policy.Kinds(protect.TierABFT, protect.TierABFTFT2); len(abftKinds) > 0 {
		if refs == nil {
			refs = abft.CaptureRefSums(m, abftKinds...)
		}
		h.chk = abft.NewLinearChecker(m, refs, abftKinds...)
		h.chkHook = h.chk.Hook()
	}
	if dmrKinds := policy.Kinds(protect.TierDMR); len(dmrKinds) > 0 {
		h.dmr = protect.NewDMR(m, dmrKinds...)
		h.dmrHook = h.dmr.Hook()
	}
	return h
}

// Policy returns the policy the controller enforces.
func (h *Hybrid) Policy() *protect.Policy { return h.policy }

// Hook returns the dispatching forward hook without registering it, for
// per-session installation in batched decode.
func (h *Hybrid) Hook() model.Hook { return h.hook }

// Install registers the hook on the model; Detach removes it.
func (h *Hybrid) Install() { h.handle = h.m.RegisterHook(h.hook) }

// Detach removes the hook from the model.
func (h *Hybrid) Detach() { h.m.RemoveHook(h.handle) }

// Reset rearms the FT2 tier for a fresh inference. The checker/DMR counters
// survive (they are lifetime telemetry, collected via DrainCounts).
func (h *Hybrid) Reset() { h.ft2.Reset() }

// CaptureForkState / ResumeFork round-trip the FT2 tier's per-session state,
// the only protection state that must follow a parked session.
func (h *Hybrid) CaptureForkState() ForkState { return h.ft2.CaptureForkState() }

// ResumeFork installs a previously captured session state.
func (h *Hybrid) ResumeFork(st ForkState) { h.ft2.ResumeFork(st) }

// Stats returns the FT2 tier's following-token corrections.
func (h *Hybrid) Stats() protect.CorrectionStats { return h.ft2.Stats() }

// StatsByKind returns the FT2 tier's per-kind correction breakdown.
func (h *Hybrid) StatsByKind() [model.NumLayerKinds]protect.CorrectionStats {
	return h.ft2.StatsByKind()
}

// FirstTokenNaNCount returns the FT2 tier's first-token NaN corrections.
func (h *Hybrid) FirstTokenNaNCount() int { return h.ft2.FirstTokenNaNCount() }

// DrainCounts returns the exact-correction tiers' counters accumulated since
// the previous drain and resets them. The serving scheduler calls it once
// per slice from the replica-owning worker, so no atomics are needed here.
func (h *Hybrid) DrainCounts() HybridCounts {
	var c HybridCounts
	if h.chk != nil {
		c.ABFT = h.chk.DrainStats()
	}
	if h.dmr != nil {
		c.DMRFixed = int64(h.dmr.Detected)
		h.dmr.Detected = 0
	}
	return c
}

// Generate runs a policy-protected inference. The hook must be installed;
// Generate panics otherwise, since the run would silently go unprotected.
func (h *Hybrid) Generate(prompt []int, n int) []int {
	mustBeInstalled(h.m, h.handle, "Hybrid")
	h.Reset()
	return h.m.Generate(prompt, n)
}

// GenerateInto is Generate writing tokens into dst[:0].
func (h *Hybrid) GenerateInto(dst []int, prompt []int, n int) []int {
	mustBeInstalled(h.m, h.handle, "Hybrid")
	h.Reset()
	return h.m.GenerateInto(dst, prompt, n)
}

// hook dispatches to the tiers in correction order: checksum repair and
// duplicated execution first (exact fixes), range restriction last (bounds
// whatever remains).
func (h *Hybrid) hook(ctx model.HookCtx, out *tensor.Tensor) {
	if h.chkHook != nil {
		h.chkHook(ctx, out)
	}
	if h.dmrHook != nil {
		h.dmrHook(ctx, out)
	}
	h.ft2Hook(ctx, out)
}
