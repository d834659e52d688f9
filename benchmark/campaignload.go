package main

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"

	"ft2/internal/arch"
	"ft2/internal/campaign"
	"ft2/internal/core"
	"ft2/internal/data"
	"ft2/internal/fault"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/protect"
	"ft2/internal/tensor"
)

// campaignSetup is the campaign phase's set-up: the model config, the
// squad-sim dataset every run shares, and the protection policy.
type campaignSetup struct {
	cfg    model.Config
	ds     *data.Dataset
	policy *protect.Policy
}

func newCampaignSetup(w workload) (campaignSetup, error) {
	cfg, err := model.ConfigByName(modelName)
	if err != nil {
		return campaignSetup{}, err
	}
	ds, err := data.ByName("squad-sim", w.campaignInputs)
	if err != nil {
		return campaignSetup{}, err
	}
	return campaignSetup{cfg: cfg, ds: ds, policy: w.policy}, nil
}

// spec is campaign run number run of a seed: exponent-bit faults, 30% of
// them persistent weight flips and 20% KV-cache flips, over the whole
// inference, forked from golden checkpoints, one worker per CPU, against
// FT2 — or the workload's adaptive policy when it has one.
func (cs campaignSetup) spec(seed int64, run, trials int) campaign.Spec {
	return campaign.Spec{
		ModelCfg: cs.cfg, ModelSeed: weightSeed, DType: numerics.FP16,
		Fault: numerics.ExponentBit, Method: arch.MethodFT2, FT2Opts: core.Defaults(),
		Policy:  cs.policy,
		Targets: fault.TargetMix{Weight: 0.3, KV: 0.2},
		Dataset: cs.ds, Trials: trials,
		BaseSeed: seed*1_000_003 + int64(run)*7919,
		Window:   campaign.WindowAll,
		Workers:  runtime.NumCPU(),
	}
}

// trialTrace records, per trial, what the traced run's TrialHook saw.
type trialTrace struct {
	mu       sync.Mutex
	runStart time.Time
	firstUse time.Duration // run start → first TrialHook call (golden + forks)
	attempts map[int]int
	trials   map[int]*trialObs
}

type trialObs struct {
	first, last time.Time
	steps       map[int]bool
}

func newTrialTrace() *trialTrace {
	return &trialTrace{attempts: map[int]int{}, trials: map[int]*trialObs{}}
}

// hook is a campaign.Spec.TrialHook: each attempt of a trial gets a forward
// hook that timestamps its first and last fire and collects the decode
// steps the attempt executed. A retried trial keeps its last attempt.
func (tt *trialTrace) hook(trial int) model.Hook {
	tt.mu.Lock()
	if len(tt.attempts) == 0 {
		tt.firstUse = time.Since(tt.runStart)
	}
	tt.attempts[trial]++
	obs := &trialObs{steps: map[int]bool{}}
	tt.trials[trial] = obs
	tt.mu.Unlock()
	// A trial's hooks all run on the worker that runs the trial, so obs
	// needs no lock of its own.
	return func(ctx model.HookCtx, _ *tensor.Tensor) {
		now := time.Now()
		if obs.first.IsZero() {
			obs.first = now
		}
		obs.last = now
		obs.steps[ctx.Step] = true
	}
}

// campaignRun is one timed campaign.Run.
type campaignRun struct {
	index     int
	trials    int
	genTokens int
	secs      float64
	res       campaign.Result
	trace     *trialTrace // nil when untraced
}

// runCampaigns runs a short warm-up campaign and then back-to-back timed
// campaigns, numbered from first, while the next one is expected to end
// within the time budget (as long as the last one took), at least one.
func runCampaigns(cs campaignSetup, w workload, seed int64, first int, budget time.Duration, traced bool) ([]campaignRun, error) {
	if _, err := campaign.Run(cs.spec(seed, -1, w.trialsPerRun/5)); err != nil {
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}
	var runs []campaignRun
	start := time.Now()
	var last time.Duration
	for run := first; run == first || time.Since(start)+last <= budget; run++ {
		spec := cs.spec(seed, run, w.trialsPerRun)
		cr := campaignRun{index: run, trials: w.trialsPerRun, genTokens: cs.ds.GenTokens}
		if traced {
			cr.trace = newTrialTrace()
			spec.TrialHook = cr.trace.hook
			cr.trace.runStart = time.Now()
		}
		t0 := time.Now()
		res, err := campaign.Run(spec)
		last = time.Since(t0)
		cr.secs = last.Seconds()
		if err != nil {
			return nil, fmt.Errorf("campaign run %d: %w", run, err)
		}
		cr.res = res
		runs = append(runs, cr)
	}
	return runs, nil
}

// campaignThroughput is the campaign phase's trials per second: completed
// trials over the wall time of the timed campaign.Run calls, summed over
// both halves of the phase.
func campaignThroughput(runs []campaignRun) float64 {
	trials, secs := 0, 0.0
	for _, cr := range runs {
		trials += cr.res.Completed
		secs += cr.secs
	}
	return float64(trials) / secs
}

// verifyCampaign re-runs one timed campaign with forking disabled — every
// trial re-executed in full — and reports whether its SDC count, its
// per-kind SDC breakdown and its correction totals match the forked run.
func verifyCampaign(cs campaignSetup, seed int64, cr campaignRun) (bool, error) {
	spec := cs.spec(seed, cr.index, cr.trials)
	spec.NoFork = true
	ref, err := campaign.Run(spec)
	if err != nil {
		return false, fmt.Errorf("unforked re-run of campaign %d: %w", cr.index, err)
	}
	return campaignResultsEqual(cr.res, ref), nil
}

// campaignResultsEqual compares the parts of two results that forking must
// not change.
func campaignResultsEqual(a, b campaign.Result) bool {
	return a.SDC == b.SDC && a.Corrections == b.Corrections &&
		a.Completed == b.Completed && a.Failed == b.Failed &&
		reflect.DeepEqual(a.ByKind, b.ByKind)
}
