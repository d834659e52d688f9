package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"ft2/internal/core"
	"ft2/internal/model"
	"ft2/internal/prefixcache"
	"ft2/internal/protect"
	"ft2/internal/serve"
)

// endToEndNames and perLayerNames are the metrics a run prints with
// --trace 0 and --trace 1, in BENCHMARK.json order.
var endToEndNames = []string{
	"ttft_p50_ms", "tpot_p50_ms",
	"goodput_tok_per_s", "trials_per_s", "setup_s", "peak_rss_mb",
}

var perLayerNames = []string{
	"serve.submit_p99_us", "serve.queue_wait_p50_ms", "serve.queue_wait_p99_ms",
	"serve.fused_rows_per_forward", "serve.fused_forward_share", "serve.prefill_row_share",
	"serve.refused_429", "serve.failed", "loadgen.late_p99_ms",
	"prefixcache.hit_rate", "prefixcache.cached_prompt_share", "prefixcache.computed_prefill_share",
	"prefixcache.evictions_per_insert", "prefixcache.lookup_p50_us", "prefixcache.insert_p50_us",
	"prefixcache.bytes_per_entry",
	"model.replay_decode_rows", "model.decode_row_us", "model.prefill_row_us", "model.mixed_forward_us",
	"model.seg.K_PROJ_us", "model.seg.Q_PROJ_us", "model.seg.V_PROJ_us", "model.seg.OUT_PROJ_us",
	"model.seg.GATE_PROJ_us", "model.seg.UP_PROJ_us", "model.seg.DOWN_PROJ_us", "model.seg.readout_us",
	"model.decode_step_us", "model.checkpoint_us", "model.restore_us",
	"core.ft2_check_us_per_call", "core.ft2_profile_us_per_call", "core.hook_share",
	"core.hybrid_us_per_call.abft_ft2", "core.corrections_per_request",
	"tensor.matmult_ns_per_madd.m1", "tensor.matmult_ns_per_madd.mB", "tensor.matmult_ns_per_madd.m64",
	"tensor.weight_bytes_per_forward",
	"campaign.golden_s", "campaign.trial_ms_p50", "campaign.trial_ms_p99",
	"campaign.reexec_step_share", "campaign.retries", "campaign.failed",
}

// serverView is what the traced run read off the server after its load:
// /metrics counter deltas over the run, the prefix cache's counters and the
// prefill counters. The server is fresh, so its totals are the run's.
type serverView struct {
	delta                  map[string]float64
	prefix                 prefixcache.Stats
	prefillTokens, prompts int64
}

func observeServer(srv *serve.Server, before map[string]float64) serverView {
	after := scrapeMetrics(srv.Handler())
	sv := serverView{delta: map[string]float64{}, prefix: srv.PrefixStats()}
	for k, v := range after {
		sv.delta[k] = v - before[k]
	}
	sv.prefillTokens, sv.prompts, _ = srv.PrefillCounters()
	return sv
}

// ratio is a/b, 0 when b is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perLayer computes the per-layer metrics of a traced run: the serve and
// prefix-cache layers from what the run observed, the model, core and
// tensor layers by replaying their public API at the run's shapes, and the
// campaign layer from the TrialHook records. It fails when a replay does;
// a percentile short of samples is left in the set's err.
func perLayer(w workload, sv serverView, recs []reqRecord, runs []campaignRun,
	prompts [][]int, reqs []request, ecfg serve.Config) (*metricSet, error) {
	ls := newMetricSet()

	// serve: every request counts toward refusals and failures; timings
	// come from the timed window.
	var submit, queue, late []float64
	refused, failed, corrections, protectedReqs := 0, 0, 0, 0
	for i := range recs {
		r := &recs[i]
		switch {
		case errors.Is(r.err, serve.ErrQueueFull):
			refused++
		case r.err != nil:
			failed++
		case r.req.protected:
			corrections += correctionTotal(r.res.Corrections)
			protectedReqs++
		}
		if !r.inWindow() {
			continue
		}
		submit = append(submit, us(r.submit))
		late = append(late, ms(r.late))
		if r.err == nil {
			queue = append(queue, r.res.QueueMS)
		}
	}
	d := sv.delta
	fwd := d["ft2serve_fused_forwards_total"]
	preRows := d["ft2serve_prefill_fused_rows_total"]
	decRows := d["ft2serve_decode_fused_rows_total"]
	ls.setQ("serve.submit_p99_us", submit, 0.99, "us")
	ls.setQ("serve.queue_wait_p50_ms", queue, 0.5, "ms")
	ls.setQ("serve.queue_wait_p99_ms", queue, 0.99, "ms")
	ls.set("serve.fused_rows_per_forward", ratio(preRows+decRows, fwd), "rows")
	ls.set("serve.fused_forward_share", ratio(fwd, d["ft2serve_batched_steps_total"]), "ratio")
	ls.set("serve.prefill_row_share", ratio(preRows, preRows+decRows), "ratio")
	ls.set("serve.refused_429", float64(refused), "count")
	ls.set("serve.failed", float64(failed), "count")
	ls.setQ("loadgen.late_p99_ms", late, 0.99, "ms")

	// prefixcache: counters from the server; Lookup/Insert timed directly
	// over the run's prompt sequence. Without a cache every figure reads 0
	// (computed_prefill_share reads 1: every prompt row is computed).
	ps := sv.prefix
	ls.set("prefixcache.hit_rate", ratio(float64(ps.Hits), float64(ps.Hits+ps.Misses)), "ratio")
	ls.set("prefixcache.cached_prompt_share", ratio(float64(ps.HitRows), float64(sv.prompts)), "ratio")
	ls.set("prefixcache.computed_prefill_share", ratio(float64(sv.prefillTokens), float64(sv.prompts)), "ratio")
	ls.set("prefixcache.evictions_per_insert", ratio(float64(ps.Evictions), float64(ps.Insertions)), "ratio")

	m, err := model.New(ecfg.ModelCfg, ecfg.Seed, ecfg.DType)
	if err != nil {
		return nil, err
	}
	cfg := m.Cfg
	var lookup, insert float64
	if w.prefixCacheMB > 0 {
		lk, in := prefixTiming(m, int64(w.prefixCacheMB)<<20, prompts, reqs)
		lookup, insert = median(lk), median(in)
	}
	ls.set("prefixcache.lookup_p50_us", lookup, "us")
	ls.set("prefixcache.insert_p50_us", insert, "us")
	ls.set("prefixcache.bytes_per_entry", ratio(float64(ps.Bytes), float64(ps.Entries)), "bytes")

	// model and core: replays on a fresh replica of the served model.
	rp := &replay{
		m: m, cfg: cfg, prompts: prompts,
		newCtl: func() protector {
			if w.policy != nil {
				return core.NewHybrid(m, ecfg.FT2Opts, w.policy, nil)
			}
			return core.New(m, ecfg.FT2Opts)
		},
		protected: func(i int) bool { return i%w.protectEvery == 0 },
	}
	rows := int(math.Max(1, math.Round(ratio(decRows, fwd))))
	chunk := ecfg.PrefillChunk
	if chunk <= 0 || chunk > w.promptLen {
		chunk = w.promptLen
	}
	dec, err := rp.forwardGroup(rows, 0, w.maxTokens)
	if err != nil {
		return nil, err
	}
	pre, err := rp.forwardGroup(0, chunk, w.maxTokens)
	if err != nil {
		return nil, err
	}
	mixed, err := rp.forwardGroup(rows, chunk, w.maxTokens)
	if err != nil {
		return nil, err
	}
	ls.set("model.replay_decode_rows", float64(rows), "rows")
	ls.set("model.decode_row_us", dec.medianUS()/float64(rows), "us")
	ls.set("model.prefill_row_us", pre.medianUS()/float64(chunk), "us")
	ls.set("model.mixed_forward_us", mixed.medianUS(), "us")
	nf := float64(len(dec.forwards))
	for _, k := range cfg.Family.LayerKinds() {
		ls.set("model.seg."+k.String()+"_us", us(dec.seg.dur[k])/nf, "us")
	}
	ls.set("model.seg.readout_us", us(dec.seg.readout)/nf, "us")

	ser, err := rp.serial(rp.newCtl(), chunk, w.maxTokens)
	if err != nil {
		return nil, err
	}
	ls.set("model.decode_step_us", median(ser.steps), "us")
	ls.set("model.checkpoint_us", median(ser.checkpoint), "us")
	ls.set("model.restore_us", median(ser.restore), "us")

	// The hybrid runs its FT2 tier inside one hook, so FT2's own per-call
	// cost is timed on a controller covering exactly that tier's kinds.
	ft2 := ser.shim
	if w.policy != nil {
		tier, err := rp.serial(core.NewWithKinds(m, ecfg.FT2Opts, ft2TierKinds(w.policy)...), chunk, w.maxTokens)
		if err != nil {
			return nil, err
		}
		ft2 = tier.shim
	}
	ls.set("core.ft2_check_us_per_call", perCallUS(ft2.total(phaseDecode, nil)), "us")
	ls.set("core.ft2_profile_us_per_call", perCallUS(ft2.total(phaseFirstToken, nil)), "us")
	hookSelf, _ := dec.hookSelf(phaseDecode, nil)
	var fwdTime float64
	for _, f := range dec.forwards {
		fwdTime += f
	}
	ls.set("core.hook_share", us(hookSelf)/fwdTime, "ratio")
	var hybrid float64
	if w.policy != nil {
		hybrid = perCallUS(dec.hookSelf(phaseDecode, func(k model.LayerKind) bool {
			return w.policy.Tier(k) == protect.TierABFTFT2
		}))
	}
	ls.set("core.hybrid_us_per_call.abft_ft2", hybrid, "us")
	ls.set("core.corrections_per_request", ratio(float64(corrections), float64(protectedReqs)), "count")

	// tensor: MatMulTInto at the model's linear shapes, one row (serial
	// decode), the replayed decode group, and a 64-row prefill chunk.
	ls.set("tensor.matmult_ns_per_madd.m1", matmulNsPerMadd(cfg, 1), "ns/madd")
	ls.set("tensor.matmult_ns_per_madd.mB", matmulNsPerMadd(cfg, rows), "ns/madd")
	ls.set("tensor.matmult_ns_per_madd.m64", matmulNsPerMadd(cfg, 64), "ns/madd")
	ls.set("tensor.weight_bytes_per_forward", weightBytesPerForward(cfg), "bytes")

	campaignLayer(runs, ls)

	if err := sameNames(ls.names, perLayerNames); err != nil {
		return nil, err
	}
	return ls, nil
}

// campaignLayer derives the campaign metrics from the TrialHook records.
// The re-executed step share is the decode steps trials actually ran over
// the steps full re-execution would run; forking lowers it.
func campaignLayer(runs []campaignRun, ls *metricSet) {
	var golden, trialMS []float64
	steps, fullSteps, retries, failed := 0, 0, 0, 0
	for _, cr := range runs {
		tt := cr.trace
		golden = append(golden, tt.firstUse.Seconds())
		gen := cr.genTokens
		for trial, obs := range tt.trials {
			trialMS = append(trialMS, ms(obs.last.Sub(obs.first)))
			steps += len(obs.steps)
			fullSteps += gen
			retries += tt.attempts[trial] - 1
		}
		failed += cr.res.Failed
	}
	ls.set("campaign.golden_s", median(golden), "s")
	ls.setQ("campaign.trial_ms_p50", trialMS, 0.5, "ms")
	ls.setQ("campaign.trial_ms_p99", trialMS, 0.99, "ms")
	ls.set("campaign.reexec_step_share", ratio(float64(steps), float64(fullSteps)), "ratio")
	ls.set("campaign.retries", float64(retries), "count")
	ls.set("campaign.failed", float64(failed), "count")
}

// sameNames reports an error unless got lists exactly want, in order.
func sameNames(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("metrics %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("metric %d is %q, want %q", i, got[i], want[i])
		}
	}
	return nil
}
