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
// execution, a stacked abft+ft2, or nothing. The exact-correction tiers
// (ABFT, DMR) run first and the FT2 clamp last, so recomputation repairs
// transient faults precisely and the clamp still bounds whatever persistent
// weight/KV corruption leaves behind.
//
// Hybrid is a Controller like FT2. Its fork state is the FT2 portion — the
// checker and DMR tiers are stateless per step apart from their counters,
// which DrainCounts hands to the owner.
type Hybrid struct {
	m      *model.Model
	policy *protect.Policy
	ft2    *FT2
	chk    *abft.LinearChecker
	dmr    *protect.DMR
	// tiers are the tier hooks in that order: Generate passes them as its
	// call-scoped hooks, and Hook dispatches to them.
	tiers []model.Hook
}

// Controller is the surface FT2 and Hybrid share, so the serving scheduler
// parks and resumes policy-protected sessions exactly like FT2-protected
// ones and the campaign resumes either at its checkpoints: protected
// generation, the forward hook for callers that place it themselves, the
// ForkState round trip, and the counters.
type Controller interface {
	Generate(prompt []int, n int) []int
	Hook() model.Hook
	Reset()
	ResumeFork(ForkState)
	CaptureForkState() ForkState
	Stats() protect.CorrectionStats
	StatsByKind() [model.NumLayerKinds]protect.CorrectionStats
	FirstTokenNaNCount() int
	DrainCounts() HybridCounts
}

// HybridCounts is the since-last-drain telemetry of the exact-correction
// tiers.
type HybridCounts struct {
	ABFT     abft.Stats
	DMRFixed int64
}

// NewHybrid builds a policy-driven controller. refs carries the build-time
// ABFT reference sums; pass nil to capture them from m now (the model must
// still be pristine). Like New, nothing is registered on the model.
func NewHybrid(m *model.Model, opts Options, policy *protect.Policy, refs *abft.RefSums) *Hybrid {
	h := &Hybrid{m: m, policy: policy}
	h.ft2 = NewWithKinds(m, opts, policy.Kinds(protect.TierFT2, protect.TierABFTFT2)...)
	if abftKinds := policy.Kinds(protect.TierABFT, protect.TierABFTFT2); len(abftKinds) > 0 {
		if refs == nil {
			refs = abft.CaptureRefSums(m, abftKinds...)
		}
		h.chk = abft.NewLinearChecker(m, refs, abftKinds...)
		h.tiers = append(h.tiers, h.chk.Hook())
	}
	if dmrKinds := policy.Kinds(protect.TierDMR); len(dmrKinds) > 0 {
		h.dmr = protect.NewDMR(m, dmrKinds...)
		h.tiers = append(h.tiers, h.dmr.Hook())
	}
	h.tiers = append(h.tiers, h.ft2.Hook())
	return h
}

// Policy returns the policy the controller enforces.
func (h *Hybrid) Policy() *protect.Policy { return h.policy }

// Hook returns the dispatching forward hook, for callers that place it
// themselves (see FT2.Hook).
func (h *Hybrid) Hook() model.Hook { return h.hook }

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

// Generate runs a policy-protected inference; the hook runs for this call
// only, after any hooks registered on the model.
func (h *Hybrid) Generate(prompt []int, n int) []int {
	return h.GenerateInto(make([]int, 0, n), prompt, n)
}

// GenerateInto is Generate writing tokens into dst[:0].
func (h *Hybrid) GenerateInto(dst []int, prompt []int, n int) []int {
	h.Reset()
	return h.m.GenerateInto(dst, prompt, n, h.tiers...)
}

// hook runs the tiers in order.
func (h *Hybrid) hook(ctx model.HookCtx, out *tensor.Tensor) {
	for _, t := range h.tiers {
		t(ctx, out)
	}
}
