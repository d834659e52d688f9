package model

import "ft2/internal/tensor"

// Site distinguishes where in the block a hook fires. Fault injection and
// most protections interpose on linear-layer outputs; Ranger protects
// activation outputs instead, so the engine exposes both sites.
type Site int

const (
	// SiteLinearOut fires on the raw output of a linear layer.
	SiteLinearOut Site = iota
	// SiteActivationOut fires on the output of the MLP activation that
	// follows FC1 (OPT/GPT-J) or GateProj (Llama family).
	SiteActivationOut
)

// String implements fmt.Stringer.
func (s Site) String() string {
	if s == SiteActivationOut {
		return "act_out"
	}
	return "linear_out"
}

// HookCtx describes the layer invocation a forward hook observes.
type HookCtx struct {
	Layer LayerRef
	Site  Site
	// Input is the tensor the layer consumed (nil at activation sites).
	// Redundant-execution protections recompute the layer output from it.
	Input *tensor.Tensor
	// Step is the generation step: 0 is the prefill pass that produces the
	// first token; step s>0 processes the s-th generated token.
	Step int
	// FirstToken is true during the prefill pass (Step == 0); FT2 profiles
	// bounds then and protects afterwards.
	FirstToken bool
}

// Hook observes — and may mutate in place — the output tensor of a linear
// layer, mirroring PyTorch forward hooks (the interposition point of
// PyTorchFI and of all the range-restriction protections). The tensor has
// one row per sequence position processed in this pass and one column per
// output neuron.
type Hook func(ctx HookCtx, out *tensor.Tensor)

// HookHandle identifies a registered hook for removal.
type HookHandle int

// RegisterHook appends a forward hook. Hooks run in registration order after
// every linear layer's output has been computed and passed through the
// precision gate — so an injector registered before a protector corrupts the
// value first and the protector then gets a chance to detect it, exactly the
// paper's fault/protection interleaving. Prefill, PrefillChunk and
// DecodeStep pass the registered hooks, in order, as the Hooks of the one
// BatchItem they run.
func (m *Model) RegisterHook(h Hook) HookHandle {
	m.nextHookID++
	m.hooks = append(m.hooks, h)
	m.hookIDs = append(m.hookIDs, HookHandle(m.nextHookID))
	return HookHandle(m.nextHookID)
}

// RemoveHook unregisters a hook by handle; unknown handles are ignored.
func (m *Model) RemoveHook(h HookHandle) {
	for i, id := range m.hookIDs {
		if id == h {
			m.hooks = append(m.hooks[:i], m.hooks[i+1:]...)
			m.hookIDs = append(m.hookIDs[:i], m.hookIDs[i+1:]...)
			return
		}
	}
}

// HookRegistered reports whether the handle names a hook that is still
// registered.
func (m *Model) HookRegistered(h HookHandle) bool {
	for _, id := range m.hookIDs {
		if id == h {
			return true
		}
	}
	return false
}

// ClearHooks removes every registered hook.
func (m *Model) ClearHooks() {
	m.hooks = m.hooks[:0]
	m.hookIDs = m.hookIDs[:0]
}

// HookCount returns the number of registered hooks.
func (m *Model) HookCount() int { return len(m.hooks) }

// runBatchHooks fires each item's per-session hooks against a view of that
// item's row range of out (and of in, for redundant-execution protections),
// so hooks observe exactly the tensor shape — and therefore the flat neuron
// indexing — of the session's own rows: 1 row for a decode step, C rows for
// a C-token prefill chunk, however many sessions share the call. A prefill
// item's hooks run with FirstToken set, so FT2 observes bounds over the
// range instead of clamping it. The views alias reusable headers in the
// scratch arena and are only valid for the duration of the hook call, like
// every hook tensor.
func (m *Model) runBatchHooks(ref LayerRef, site Site, in, out *tensor.Tensor, items []BatchItem) {
	any := false
	for i := range items {
		if len(items[i].Hooks) > 0 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	sc := m.scratch
	for i := range items {
		it := &items[i]
		if len(it.Hooks) == 0 {
			continue
		}
		// Tracked views: a hook that writes its rows (fault injectors do)
		// marks the view mutated, which propagates to the full batch
		// tensor so its cached finiteness can never go stale.
		sc.rowOut.BindRowsView(out, sc.itemLo[i], sc.itemRows[i])
		ctx := HookCtx{Layer: ref, Site: site, Step: it.State.step, FirstToken: it.State.step == 0}
		if in != nil {
			sc.rowIn.BindRowsView(in, sc.itemLo[i], sc.itemRows[i])
			ctx.Input = sc.rowIn
		}
		for _, h := range it.Hooks {
			h(ctx, sc.rowOut)
		}
	}
	out.MarkMutated()
}
