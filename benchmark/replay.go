package main

import (
	"fmt"
	"time"

	"ft2/internal/core"
	"ft2/internal/model"
	"ft2/internal/prefixcache"
	"ft2/internal/protect"
	"ft2/internal/tensor"
)

// replayBudget is how long each replay measurement runs.
const replayBudget = 400 * time.Millisecond

// protector is the controller surface the replay drives; *core.FT2 and
// *core.Hybrid both provide it.
type protector interface {
	Hook() model.Hook
	Reset()
	CaptureForkState() core.ForkState
	ResumeFork(core.ForkState)
}

// phase indexes hook timings: decode rows check bounds, first-token
// (prefill) rows profile them.
const (
	phaseDecode = iota
	phaseFirstToken
)

// hookShim times one controller's hook calls, keyed by phase and by
// HookCtx.Layer.Kind, and counts the linear invocations it saw.
type hookShim struct {
	dur   [2][model.NumLayerKinds]time.Duration
	calls [2][model.NumLayerKinds]int
	fired map[model.LayerRef]int
}

func newHookShim() *hookShim { return &hookShim{fired: map[model.LayerRef]int{}} }

func (s *hookShim) wrap(h model.Hook) model.Hook {
	return func(ctx model.HookCtx, out *tensor.Tensor) {
		t0 := time.Now()
		h(ctx, out)
		d := time.Since(t0)
		ph := phaseDecode
		if ctx.FirstToken {
			ph = phaseFirstToken
		}
		s.dur[ph][ctx.Layer.Kind] += d
		s.calls[ph][ctx.Layer.Kind]++
		if ctx.Site == model.SiteLinearOut {
			s.fired[ctx.Layer]++
		}
	}
}

// total sums a phase's self time and calls over the kinds keep selects
// (every kind when keep is nil).
func (s *hookShim) total(ph int, keep func(model.LayerKind) bool) (time.Duration, int) {
	var d time.Duration
	n := 0
	for k := range s.dur[ph] {
		if keep == nil || keep(model.LayerKind(k)) {
			d += s.dur[ph][k]
			n += s.calls[ph][k]
		}
	}
	return d, n
}

// perCallUS is the mean self time per call in microseconds (0 for none).
func perCallUS(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n) / 1e3
}

// checkFired reports an error unless the controller's hook fired on every
// linear layer of the model.
func (s *hookShim) checkFired(cfg model.Config, what string) error {
	for _, ref := range cfg.LinearLayers() {
		if s.fired[ref] == 0 {
			return fmt.Errorf("%s: protection hook never fired on %v", what, ref)
		}
	}
	return nil
}

// segTimer attributes a forward's wall time to layer kinds: a hook in first
// position on one item fires after each linear layer, and the gap since the
// previous fire is charged to the kind that fired. The gap before a fire
// holds everything computed since the previous linear output — attention
// falls in the OUT segment, the activation in GATE, the previous layer's
// protection hooks at the start of each segment — and the tail after the
// last fire is the readout.
type segTimer struct {
	last    time.Time
	dur     [model.NumLayerKinds]time.Duration
	readout time.Duration
}

func (s *segTimer) begin() { s.last = time.Now() }

func (s *segTimer) hook(ctx model.HookCtx, _ *tensor.Tensor) {
	now := time.Now()
	s.dur[ctx.Layer.Kind] += now.Sub(s.last)
	s.last = now
}

func (s *segTimer) end() { s.readout += time.Since(s.last) }

// replay re-drives the model's public API at the shapes a workload ran.
type replay struct {
	m       *model.Model
	cfg     model.Config
	prompts [][]int
	// newCtl builds the workload's protection controller on m.
	newCtl func() protector
	// protected reports whether group item i runs protected.
	protected func(i int) bool
}

// groupResult is what one ForwardBatch replay measured.
type groupResult struct {
	forwards []float64 // µs per ForwardBatch call
	seg      segTimer
	shims    []*hookShim // one per protected item
}

func (g *groupResult) medianUS() float64 { return median(g.forwards) }

// hookSelf sums every shim's self time in a phase.
func (g *groupResult) hookSelf(ph int, keep func(model.LayerKind) bool) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range g.shims {
		sd, sn := s.total(ph, keep)
		d += sd
		n += sn
	}
	return d, n
}

// startedState returns a state holding prompt's prefill (run under ctl when
// non-nil, whose fork state is returned) and a snapshot to rewind it to.
func (rp *replay) startedState(prompt []int, ctl protector) (*model.DecodeState, *model.Snapshot, core.ForkState) {
	m := rp.m
	st := m.NewDecodeState()
	prev := m.SwapState(st)
	m.ClearHooks()
	if ctl != nil {
		ctl.Reset()
		m.RegisterHook(ctl.Hook())
	}
	m.Prefill(prompt)
	m.ClearHooks()
	snap := &model.Snapshot{}
	m.Checkpoint(snap)
	m.SwapState(prev)
	var fs core.ForkState
	if ctl != nil {
		fs = ctl.CaptureForkState()
	}
	return st, snap, fs
}

// forwardGroup replays ForwardBatch with decodeRows decode items (each a
// session past prefill) plus, when chunk > 0, one item prefilling a chunk
// of chunk prompt rows — the fused group shape the scheduler runs. Decode
// sessions rewind to their post-prefill snapshot every steps forwards so
// positions stay in the range the workload decodes.
func (rp *replay) forwardGroup(decodeRows, chunk, steps int) (*groupResult, error) {
	m := rp.m
	res := &groupResult{}
	items := make([]model.BatchItem, 0, decodeRows+1)
	type rewind struct {
		snap *model.Snapshot
		ctl  protector
		fs   core.ForkState
	}
	rws := make([]rewind, decodeRows)
	for i := 0; i < decodeRows; i++ {
		var ctl protector
		if rp.protected(i) {
			ctl = rp.newCtl()
		}
		st, snap, fs := rp.startedState(rp.prompts[i%len(rp.prompts)], ctl)
		rws[i] = rewind{snap, ctl, fs}
		items = append(items, model.BatchItem{State: st})
	}
	var pre *model.DecodeState
	var preCtl protector
	prePrompt := rp.prompts[0]
	if chunk > 0 {
		pre = m.NewDecodeState()
		if rp.protected(decodeRows) {
			preCtl = rp.newCtl()
		}
		items = append(items, model.BatchItem{State: pre, Prefill: prePrompt[:chunk]})
	}
	// Hooks: the segment timer first on item 0, then each protected item's
	// controller behind a timing shim.
	for i := range items {
		ctl := preCtl
		if i < decodeRows {
			ctl = rws[i].ctl
		}
		if i == 0 {
			items[i].Hooks = append(items[i].Hooks, res.seg.hook)
		}
		if ctl != nil {
			s := newHookShim()
			res.shims = append(res.shims, s)
			items[i].Hooks = append(items[i].Hooks, s.wrap(ctl.Hook()))
		}
	}

	var dst []int
	deadline := time.Now().Add(replayBudget)
	for time.Now().Before(deadline) || len(res.forwards) < steps {
		for i := range rws {
			prev := m.SwapState(items[i].State)
			items[i].Tok = m.Restore(rws[i].snap)
			m.SwapState(prev)
			if rws[i].ctl != nil {
				rws[i].ctl.ResumeFork(rws[i].fs)
			}
		}
		for s := 0; s < steps; s++ {
			if pre != nil {
				prev := m.SwapState(pre)
				m.BeginPrefill(len(prePrompt))
				m.SwapState(prev)
				if preCtl != nil {
					preCtl.Reset()
				}
			}
			res.seg.begin()
			t0 := time.Now()
			dst = m.ForwardBatch(items, dst[:0])
			d := time.Since(t0)
			res.seg.end()
			res.forwards = append(res.forwards, float64(d)/1e3)
			for i := 0; i < decodeRows; i++ {
				items[i].Tok = dst[i]
			}
		}
	}
	for i, s := range res.shims {
		if err := s.checkFired(rp.cfg, fmt.Sprintf("fused replay item %d", i)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// serialResult is what the single-session replay measured.
type serialResult struct {
	steps      []float64 // µs per DecodeStep
	checkpoint []float64 // µs per Checkpoint
	restore    []float64 // µs per Restore
	shim       *hookShim
}

// serial replays the single-session path the campaign runs — model-level
// hooks, chunked prefill, DecodeStep, Checkpoint and Restore — under ctl,
// decoding steps tokens per prefill.
func (rp *replay) serial(ctl protector, chunk, steps int) (*serialResult, error) {
	m := rp.m
	res := &serialResult{shim: newHookShim()}
	prompt := rp.prompts[0]
	if chunk <= 0 || chunk > len(prompt) {
		chunk = len(prompt)
	}
	hook := res.shim.wrap(ctl.Hook())
	snap := &model.Snapshot{}
	deadline := time.Now().Add(replayBudget)
	for time.Now().Before(deadline) || len(res.steps) < steps {
		m.ClearHooks()
		m.RegisterHook(hook)
		ctl.Reset()
		m.BeginPrefill(len(prompt))
		var tok int
		for pos := 0; pos < len(prompt); pos += chunk {
			tok, _ = m.PrefillChunk(prompt[pos:min(pos+chunk, len(prompt))])
		}
		for s := 1; s < steps; s++ {
			t0 := time.Now()
			tok = m.DecodeStep(tok)
			res.steps = append(res.steps, float64(time.Since(t0))/1e3)
		}
		t0 := time.Now()
		m.Checkpoint(snap)
		res.checkpoint = append(res.checkpoint, float64(time.Since(t0))/1e3)
		t0 = time.Now()
		m.Restore(snap)
		res.restore = append(res.restore, float64(time.Since(t0))/1e3)
	}
	m.ClearHooks()
	if err := res.shim.checkFired(rp.cfg, "serial replay"); err != nil {
		return nil, err
	}
	return res, nil
}

// matmulNsPerMadd times tensor.MatMulTInto with m activation rows against
// every linear weight shape of cfg plus the LM head, and returns total time
// over total multiply-adds.
func matmulNsPerMadd(cfg model.Config, m int) float64 {
	type shape struct{ n, k int }
	var shapes []shape
	for _, kind := range cfg.Family.LayerKinds() {
		shapes = append(shapes, shape{cfg.OutDim(kind), cfg.InDim(kind)})
	}
	shapes = append(shapes, shape{cfg.Vocab, cfg.Hidden})
	var ns, madds float64
	per := replayBudget / time.Duration(len(shapes))
	for _, sh := range shapes {
		a, w, out := tensor.New(m, sh.k), tensor.New(sh.n, sh.k), tensor.New(m, sh.n)
		a.Fill(0.5)
		w.Fill(0.25)
		reps := 0
		t0 := time.Now()
		for time.Since(t0) < per {
			tensor.MatMulTInto(out, a, w)
			reps++
		}
		ns += float64(time.Since(t0).Nanoseconds())
		madds += float64(reps) * float64(m*sh.k*sh.n)
	}
	return ns / madds
}

// weightBytesPerForward is computed, not measured: the f32 bytes of every
// linear weight plus the LM head, each streamed once per forward.
func weightBytesPerForward(cfg model.Config) float64 {
	elems := cfg.Vocab * cfg.Hidden
	for _, ref := range cfg.LinearLayers() {
		elems += cfg.OutDim(ref.Kind) * cfg.InDim(ref.Kind)
	}
	return float64(elems) * 4
}

// prefixTiming times Cache.Lookup and Cache.Insert directly over a request
// sequence's prompts on a fresh cache of the workload's budget. Every entry
// carries the same full-length snapshot (the cache only reads its size), and
// a prompt is inserted after any lookup that left more than its last token
// to compute, as the scheduler does.
func prefixTiming(m *model.Model, budget int64, prompts [][]int, order []request) (lookupUS, insertUS []float64) {
	snap := &model.Snapshot{}
	prev := m.SwapState(m.NewDecodeState())
	m.ClearHooks()
	m.Prefill(prompts[0])
	m.Checkpoint(snap)
	m.SwapState(prev)

	c := prefixcache.New(budget)
	for _, r := range order {
		p := prompts[r.prompt]
		t0 := time.Now()
		ref := c.Lookup(p, false)
		lookupUS = append(lookupUS, float64(time.Since(t0))/1e3)
		hit := 0
		if ref != nil {
			hit = ref.Rows()
			ref.Release()
		}
		if hit < len(p)-1 {
			t0 = time.Now()
			c.Insert(p, snap, nil, true)
			insertUS = append(insertUS, float64(time.Since(t0))/1e3)
		}
	}
	return lookupUS, insertUS
}

// ft2TierKinds selects the layer kinds a policy protects with an FT2 tier.
func ft2TierKinds(p *protect.Policy) []model.LayerKind {
	return p.Kinds(protect.TierFT2, protect.TierABFTFT2)
}
