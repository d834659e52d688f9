package protect

import (
	"ft2/internal/model"
	"ft2/internal/tensor"
)

// OfflineProfile runs fault-free generations over a profiling corpus and
// records the min/max activation of every hook site — the expensive offline
// bound-profiling workflow of the baselines (Section 3.2: 20% of the
// training set). The returned store covers all sites; protectors consult
// only their covered subset.
//
// genTokens is the number of tokens generated per input (the paper profiles
// full generations so that every token step's activations contribute).
func OfflineProfile(m *model.Model, prompts [][]int, genTokens int) *Store {
	store := NewStore()
	observe := func(ctx model.HookCtx, out *tensor.Tensor) {
		store.Observe(SiteKey{Layer: ctx.Layer, Site: ctx.Site}, out)
	}
	for _, p := range prompts {
		m.Generate(p, genTokens, observe)
	}
	return store
}

// FirstTokenProfiler records per-inference bounds during the prefill pass
// (step 0) and NaN-corrects it, implementing the observation side of FT2's
// online methodology. It is reset per inference by the FT2 core.
type FirstTokenProfiler struct {
	Store *Store
	// NaNCorrected counts NaNs fixed during the first token (always-on
	// protection per Section 4.2.2).
	NaNCorrected int
}

// NewFirstTokenProfiler returns a profiler with an empty store.
func NewFirstTokenProfiler() *FirstTokenProfiler {
	return &FirstTokenProfiler{Store: NewStore()}
}

// Reset clears the recorded bounds for a new inference.
func (f *FirstTokenProfiler) Reset() {
	f.Store.Reset()
	f.NaNCorrected = 0
}

// ObserveHook returns a hook that, during the first token only, corrects
// NaN (the only protection possible without bounds) and then records the
// min/max of the corrected tensor.
func (f *FirstTokenProfiler) ObserveHook() model.Hook {
	return func(ctx model.HookCtx, out *tensor.Tensor) {
		if !ctx.FirstToken {
			return
		}
		f.NaNCorrected += CorrectNaNOnly(out.Data)
		f.Store.Observe(SiteKey{Layer: ctx.Layer, Site: ctx.Site}, out)
	}
}
