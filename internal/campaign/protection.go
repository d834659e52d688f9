package campaign

import (
	"ft2/internal/arch"
	"ft2/internal/core"
	"ft2/internal/model"
	"ft2/internal/protect"
)

// protection is a spec's protection method as the trial runner drives it:
// newProtection picks the one implementation, and trials, golden
// checkpoints and forks only call through it.
type protection interface {
	// arm rearms the protection for one inference and returns the hook to
	// register after the injector (nil: none). A zero st starts a fresh
	// inference; a checkpoint's st resumes its counters and FT2 bounds.
	arm(st core.ForkState) model.Hook
	// state is what a checkpoint records for arm to resume: the counters so
	// far and a copy of FT2's first-token bounds.
	state() core.ForkState
	// drain returns the corrections a trial reports: the counters plus
	// first-token NaN fixes, with a hybrid's ABFT detections and DMR fixes
	// folded in as out-of-bound events (and drained, as they are not
	// resumable state).
	drain() protect.CorrectionStats
}

// newProtection builds the protection spec selects on m; mode is the
// out-of-bound correction target of the bounds-based methods.
func newProtection(spec Spec, m *model.Model, mode protect.ClipMode) protection {
	switch {
	case spec.Policy != nil:
		// refs nil: the replica is pristine here, so the hybrid captures its
		// own ABFT reference sums at build time.
		return controllerProtection{core.NewHybrid(m, spec.FT2Opts, spec.Policy, nil)}
	case spec.UseDMR:
		return dmrProtection{protect.NewDMR(m)}
	case spec.CustomCoverage != nil:
		return boundsProtection{&protect.Protector{Coverage: spec.CustomCoverage,
			BoundsFor: spec.OfflineBounds.Get, Mode: mode, CorrectNaN: true}}
	case spec.Method == arch.MethodNone:
		return noProtection{}
	case spec.Method == arch.MethodFT2:
		return controllerProtection{core.New(m, spec.FT2Opts)}
	default:
		p := protect.ForMethod(spec.Method, spec.ModelCfg.Family, spec.OfflineBounds)
		p.Mode = mode
		return boundsProtection{p}
	}
}

type noProtection struct{}

func (noProtection) arm(core.ForkState) model.Hook  { return nil }
func (noProtection) state() core.ForkState          { return core.ForkState{} }
func (noProtection) drain() protect.CorrectionStats { return protect.CorrectionStats{} }

// controllerProtection drives FT2 or the hybrid through their fork state.
type controllerProtection struct{ core.Controller }

func (p controllerProtection) arm(st core.ForkState) model.Hook {
	if st.Bounds == nil {
		p.Reset()
	} else {
		p.ResumeFork(st)
	}
	return p.Hook()
}

func (p controllerProtection) state() core.ForkState { return p.CaptureForkState() }

func (p controllerProtection) drain() protect.CorrectionStats {
	c, hc := p.Stats(), p.DrainCounts()
	c.NaN += p.FirstTokenNaNCount()
	c.OutOfBound += int(hc.ABFT.Detected + hc.DMRFixed)
	return c
}

// dmrProtection counts duplicated-execution detections as out-of-bound
// corrections.
type dmrProtection struct{ *protect.DMR }

func (p dmrProtection) arm(st core.ForkState) model.Hook {
	p.Detected = st.Stats.OutOfBound
	return p.Hook()
}

func (p dmrProtection) state() core.ForkState {
	return core.ForkState{Stats: protect.CorrectionStats{OutOfBound: p.Detected}}
}

func (p dmrProtection) drain() protect.CorrectionStats { return p.state().Stats }

type boundsProtection struct{ *protect.Protector }

func (p boundsProtection) arm(st core.ForkState) model.Hook {
	p.Stats = st.Stats
	return p.Hook()
}

func (p boundsProtection) state() core.ForkState          { return core.ForkState{Stats: p.Stats} }
func (p boundsProtection) drain() protect.CorrectionStats { return p.Stats }
