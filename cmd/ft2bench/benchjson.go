package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"testing"
	"time"

	"ft2/internal/arch"
	"ft2/internal/campaign"
	"ft2/internal/core"
	"ft2/internal/data"
	"ft2/internal/fault"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/protect"
	"ft2/internal/serve"
	"ft2/internal/stats"
	"ft2/internal/tensor"
)

// benchModelResult is one model's decode-throughput measurement: a full
// greedy generation (prefill + decode) over the squad-sim reference prompt,
// normalized per generated token, at one GOMAXPROCS setting.
type benchModelResult struct {
	Model        string  `json:"model"`
	Weights      string  `json:"weights"` // weight storage mode: f32 or f16
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GenTokens    int     `json:"gen_tokens"`
	TokensPerSec float64 `json:"tokens_per_sec"`
	NsPerToken   float64 `json:"ns_per_token"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
}

// benchCampaignResult is the end-to-end fault-injection throughput of the
// campaign engine (sampling, injection, generation, classification), with
// golden-checkpoint forking on or off. SpeedupVsNoFork is set on the forked
// entry once its no-fork twin has been measured.
type benchCampaignResult struct {
	Model           string  `json:"model"`
	Method          string  `json:"method"`
	Window          string  `json:"window"`
	Fork            bool    `json:"fork"`
	Trials          int     `json:"trials"`
	Seconds         float64 `json:"seconds"`
	TrialsPerSec    float64 `json:"trials_per_sec"`
	SpeedupVsNoFork float64 `json:"speedup_vs_no_fork,omitempty"`
}

// benchServeResult is the serving layer's aggregate throughput at one
// (GOMAXPROCS, batching, concurrency) point: protected generations through
// the continuous-batching scheduler, verified bit-identical to the serial
// GenerateInto baseline it is normalized against. Batched rows fuse ready
// sessions into ForwardBatch groups; the batched=false rows force one
// session per forward (BatchMax 1) for comparison.
type benchServeResult struct {
	GOMAXPROCS         int     `json:"gomaxprocs"`
	Batched            bool    `json:"batched"`
	Clients            int     `json:"clients"`
	Requests           int     `json:"requests"`
	TokensPerSec       float64 `json:"tokens_per_sec"`
	SerialTokensPerSec float64 `json:"serial_tokens_per_sec"`
	SpeedupVsSerial    float64 `json:"speedup_vs_serial"`
	OracleMatch        bool    `json:"oracle_match"`
}

// benchChaosPolicyResult is one protection policy's point on the
// SDC-rate-vs-throughput Pareto plane: SDC over a mixed activation/weight/KV
// fault campaign (identical fault sites across policies — same BaseSeed) and
// protected decode throughput on the same model.
type benchChaosPolicyResult struct {
	Policy   string  `json:"policy"`
	Tiers    string  `json:"tiers"`
	Trials   int     `json:"trials"`
	SDCCount int     `json:"sdc_count"`
	SDCRate  float64 `json:"sdc_rate"`
	// TokensPerSec is decode throughput in tokens per process-CPU second
	// (best of interleaved rounds), which resolves sub-percent protection
	// overheads that wall-clock noise on a shared machine would swamp.
	TokensPerSec float64 `json:"tokens_per_cpu_sec"`
	// OverheadPct is the decode slowdown vs the unprotected baseline.
	OverheadPct float64 `json:"overhead_pct"`
}

// sdc is the policy's SDC count as a binomial proportion.
func (r benchChaosPolicyResult) sdc() stats.Proportion {
	return stats.Proportion{Successes: r.SDCCount, Trials: r.Trials}
}

// benchChaosResult is the chaos section: the Pareto table over the five
// policies plus the dominance verdict — the adaptive hybrid must achieve an
// SDC rate separably lower than every single method's (non-overlapping
// Wilson 95% intervals) at equal-or-less throughput overhead (TPS within 3%
// of each protected single method).
type benchChaosResult struct {
	Model           string                   `json:"model"`
	Fault           string                   `json:"fault"`
	MixWeight       float64                  `json:"mix_weight"`
	MixKV           float64                  `json:"mix_kv"`
	TrialsPerPolicy int                      `json:"trials_per_policy"`
	Policies        []benchChaosPolicyResult `json:"policies"`
	HybridDominates bool                     `json:"hybrid_dominates"`
}

// benchPrefixResult is the prefix-cache section: the shared-prefix chat
// storm (many clients, mostly-common prompts) served cold (cache off) vs
// warm (cache on, primed by an untimed pass over the same prompt set). The
// warm pass must compute no more prefill tokens than the prompts' unique
// suffixes justify and beat the cold throughput outright, with every served
// output still bit-identical to the GenerateInto oracle.
type benchPrefixResult struct {
	Model                string  `json:"model"`
	Clients              int     `json:"clients"`
	Requests             int     `json:"requests"`
	PromptLen            int     `json:"prompt_len"`
	SharedFrac           float64 `json:"shared_frac"`
	MaxTokens            int     `json:"max_tokens"`
	PromptTokens         int64   `json:"prompt_tokens"`
	UniqueSuffixTokens   int64   `json:"unique_suffix_tokens"`
	WarmPrefillTokens    int64   `json:"warm_computed_prefill_tokens"`
	PrefillVsUniqueRatio float64 `json:"warm_prefill_vs_unique_ratio"`
	WarmCacheHits        int64   `json:"warm_cache_hits"`
	ColdTokensPerSec     float64 `json:"cold_tokens_per_sec"`
	WarmTokensPerSec     float64 `json:"warm_tokens_per_sec"`
	SpeedupWarmVsCold    float64 `json:"speedup_warm_vs_cold"`
	OracleMatch          bool    `json:"oracle_match"`
}

type benchReport struct {
	GOMAXPROCS int                   `json:"gomaxprocs"`
	NumCPU     int                   `json:"num_cpu"`
	Models     []benchModelResult    `json:"models"`
	FT2        benchModelResult      `json:"ft2_protected"`
	Campaigns  []benchCampaignResult `json:"campaigns"`
	Serve      []benchServeResult    `json:"serve"`
	Prefix     *benchPrefixResult    `json:"prefix,omitempty"`
	Chaos      *benchChaosResult     `json:"chaos,omitempty"`
	Cluster    *benchClusterResult   `json:"cluster,omitempty"`
}

// procsSweep is the GOMAXPROCS settings the models and serve sections are
// measured at. On a single-core host the >1 settings measure concurrency
// without parallelism (pool handoff overhead, not speedup).
var procsSweep = []int{1, 2, 4}

// runBenchJSON measures decode and campaign throughput and writes the
// machine-readable report to path (the BENCH_decode.json artifact).
func runBenchJSON(path string, seed int64) error {
	ds, err := data.ByName("squad-sim", 1)
	if err != nil {
		return err
	}
	prompt := ds.Inputs[0].Prompt
	ambient := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(ambient)
	rep := benchReport{GOMAXPROCS: ambient, NumCPU: runtime.NumCPU()}

	// Warm the resident matmul worker pool at the sweep maximum (it resizes
	// with GOMAXPROCS, so this just front-loads helper spawning out of the
	// timed sections).
	runtime.GOMAXPROCS(procsSweep[len(procsSweep)-1])
	pa, pb := tensor.New(64, 64), tensor.New(64, 64)
	pa.Fill(1)
	pb.Fill(1)
	tensor.MatMul(pa, pb)

	// The generators take a reused destination buffer (GenerateInto), so the
	// steady-state decode is measured allocation-free; one warm-up call
	// outside the timer pays for scratch arenas and KV slabs.
	buf := make([]int, 0, ds.GenTokens)
	measure := func(name, weights string, gen func(dst []int, prompt []int, n int) []int) benchModelResult {
		gen(buf, prompt, ds.GenTokens)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gen(buf, prompt, ds.GenTokens)
			}
		})
		perOp := float64(res.NsPerOp())
		return benchModelResult{
			Model:        name,
			Weights:      weights,
			GOMAXPROCS:   runtime.GOMAXPROCS(0),
			GenTokens:    ds.GenTokens,
			TokensPerSec: float64(ds.GenTokens) / (perOp / 1e9),
			NsPerToken:   perOp / float64(ds.GenTokens),
			AllocsPerOp:  res.AllocsPerOp(),
			BytesPerOp:   res.AllocedBytesPerOp(),
		}
	}

	for _, procs := range procsSweep {
		runtime.GOMAXPROCS(procs)
		for _, name := range []string{"opt-6.7b-sim", "gptj-6b-sim", "llama2-7b-sim"} {
			cfg, err := model.ConfigByName(name)
			if err != nil {
				return err
			}
			m, err := model.New(cfg, seed, numerics.FP16)
			if err != nil {
				return err
			}
			rep.Models = append(rep.Models, measure(name, "f32", bare(m)))
			m16, err := model.New(cfg, seed, numerics.FP16)
			if err != nil {
				return err
			}
			m16.EnableF16Weights()
			rep.Models = append(rep.Models, measure(name, "f16", bare(m16)))
		}
	}
	runtime.GOMAXPROCS(ambient)

	// FT2-protected decode on the llama config: the overhead the paper's
	// Fig. 14 normalizes against the unprotected numbers above.
	cfg, err := model.ConfigByName("llama2-7b-sim")
	if err != nil {
		return err
	}
	m, err := model.New(cfg, seed, numerics.FP16)
	if err != nil {
		return err
	}
	rep.FT2 = measure("llama2-7b-sim", "f32", core.New(m, core.Defaults()).GenerateInto)

	// Campaign throughput, WindowAll, golden-checkpoint forking on (the
	// default) vs off; the forked entry records its speedup over the twin.
	for _, method := range []arch.Method{arch.MethodNone, arch.MethodFT2} {
		var perFork [2]benchCampaignResult // [forked, no-fork]
		for i, noFork := range []bool{false, true} {
			spec := campaign.Spec{
				ModelCfg: cfg, ModelSeed: seed, DType: numerics.FP16,
				Fault: numerics.ExponentBit, Method: method,
				FT2Opts: core.Defaults(), Dataset: ds,
				Trials: 96, BaseSeed: seed + 1000,
				NoFork: noFork,
			}
			start := time.Now()
			if _, err := campaign.Run(spec); err != nil {
				return err
			}
			secs := time.Since(start).Seconds()
			perFork[i] = benchCampaignResult{
				Model: cfg.Name, Method: method.String(), Window: campaign.WindowAll.String(),
				Fork: !noFork, Trials: spec.Trials,
				Seconds: secs, TrialsPerSec: float64(spec.Trials) / secs,
			}
		}
		perFork[0].SpeedupVsNoFork = perFork[0].TrialsPerSec / perFork[1].TrialsPerSec
		rep.Campaigns = append(rep.Campaigns, perFork[0], perFork[1])
	}

	// The chaos Pareto table: SDC rate vs protected-decode throughput for
	// uniform single-method policies against the adaptive per-layer hybrid.
	chaosRes, err := benchChaosPareto(seed)
	if err != nil {
		return err
	}
	rep.Chaos = chaosRes

	// Serving throughput at increasing concurrency, against the serial
	// baseline of the same requests run one-by-one through GenerateInto on
	// the same GOMAXPROCS setting. Batched rows fuse sessions into
	// ForwardBatch groups; one BatchMax=1 row per setting isolates what
	// fusion buys over pure time-slicing.
	for _, procs := range procsSweep {
		runtime.GOMAXPROCS(procs)
		serveRes, err := benchServe(seed, procs)
		if err != nil {
			return err
		}
		rep.Serve = append(rep.Serve, serveRes...)
	}
	runtime.GOMAXPROCS(ambient)

	// The shared-prefix storm: cold (cache off) vs warm (cache on, primed)
	// serving of a 90%-shared 64-client prompt set.
	prefixRes, err := benchPrefix(seed)
	if err != nil {
		return err
	}
	rep.Prefix = prefixRes

	// The router cluster sweep: throughput and migration latency of an
	// ft2router fronting 1/2/4 workers, with a kill-storm at N >= 2.
	clusterRes, err := benchCluster(seed)
	if err != nil {
		return err
	}
	rep.Cluster = clusterRes

	return writeBenchReport(path, &rep)
}

// writeBenchReport marshals the report the way every bench path does:
// two-space indent plus a trailing newline.
func writeBenchReport(path string, rep *benchReport) error {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// runBenchSections recomputes only the named sections of an existing
// BENCH_decode.json, leaving every other section exactly as the file has
// it. This keeps artifact regeneration cheap when only one subsystem
// changed — the full runBenchJSON sweep takes minutes; one section takes
// seconds.
func runBenchSections(path string, seed int64, sections []string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read existing report (run -bench-json without -sections first): %w", err)
	}
	var rep benchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("parse existing report %s: %w", path, err)
	}
	for _, sec := range sections {
		switch sec {
		case "serve":
			ambient := runtime.GOMAXPROCS(0)
			rep.Serve = rep.Serve[:0]
			for _, procs := range procsSweep {
				runtime.GOMAXPROCS(procs)
				res, err := benchServe(seed, procs)
				if err != nil {
					runtime.GOMAXPROCS(ambient)
					return err
				}
				rep.Serve = append(rep.Serve, res...)
			}
			runtime.GOMAXPROCS(ambient)
		case "cluster":
			res, err := benchCluster(seed)
			if err != nil {
				return err
			}
			rep.Cluster = res
		case "chaos":
			res, err := benchChaosPareto(seed)
			if err != nil {
				return err
			}
			rep.Chaos = res
		case "prefix":
			res, err := benchPrefix(seed)
			if err != nil {
				return err
			}
			rep.Prefix = res
		default:
			return fmt.Errorf("unknown section %q (have: serve, cluster, chaos, prefix)", sec)
		}
	}
	return writeBenchReport(path, &rep)
}

// cpuSeconds returns the process's accumulated user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Sec) + float64(ru.Utime.Usec)/1e6 +
		float64(ru.Stime.Sec) + float64(ru.Stime.Usec)/1e6
}

// benchChaosPareto runs the mixed-target fault campaign — 30% persistent
// weight corruption, 20% KV-cache flips, 50% transient activation flips,
// exponent-bit faults — under five protection policies sharing one BaseSeed
// (so every policy faces the identical fault-site sequence), then measures
// each policy's protected decode throughput. The adaptive hybrid assigns
// per-layer-kind tiers from the ft2policy vulnerability profile of
// qwen2-1.5b-sim: the kinds whose unprotected SDC is negligible (K/Q — the
// softmax renormalizes their faults away) stay unprotected, and the
// vulnerable kinds get the stacked abft+ft2 — ABFT recompute repairs
// transient activation flips exactly, while the FT2 clamp bounds the
// persistent-weight and KV-cache fallout that an input-consistent
// recompute cannot see.
func benchChaosPareto(seed int64) (*benchChaosResult, error) {
	cfg, err := model.ConfigByName("qwen2-1.5b-sim")
	if err != nil {
		return nil, err
	}
	ds := data.SquadSim(4)
	ds.GenTokens = 16
	ds.AnswerLo, ds.AnswerHi = 8, 12
	mix := fault.TargetMix{Weight: 0.3, KV: 0.2}
	const trials = 220

	policies := chaosPolicies(cfg.Family)

	// Protected decode throughput, one generator per policy. All generators
	// are measured in interleaved rounds — round-robin, best-of-N per policy
	// — so slow machine-load drift hits every policy equally instead of
	// skewing whichever one happened to run during a busy stretch.
	gens := make([]func(dst, prompt []int, n int) []int, len(policies))
	for i, pol := range policies {
		m, err := model.New(cfg, seed, numerics.FP16)
		if err != nil {
			return nil, err
		}
		gens[i] = chaosGenerator(m, pol)
	}
	buf := make([]int, 0, ds.GenTokens)
	prompt := ds.Inputs[0].Prompt
	for _, gen := range gens {
		gen(buf, prompt, ds.GenTokens) // warm up scratch arenas
	}
	// The protection overheads under comparison are around a percent, far
	// below the several-percent noise of absolute timing on a shared
	// machine (scheduler steals, frequency scaling, SMT contention). Two
	// layers of defence: measure process-CPU time rather than wall clock,
	// and measure every policy as a PAIRED ratio against the hybrid — the
	// policy every dominance comparison involves — in short alternating
	// windows that see near-identical machine conditions, so the ratio
	// cancels drift that would swamp an absolute comparison; the median
	// over pairs discards contention outliers.
	cpuWindow := func(gen func(dst, prompt []int, n int) []int) float64 {
		iters := 0
		start := cpuSeconds()
		var elapsed float64
		for elapsed < 0.1 {
			for k := 0; k < 20; k++ {
				gen(buf, prompt, ds.GenTokens)
			}
			iters += 20
			elapsed = cpuSeconds() - start
		}
		return float64(iters*ds.GenTokens) / elapsed
	}
	hub := len(gens) - 1 // policies[last] is the hybrid
	tps := make([]float64, len(gens))
	for round := 0; round < 8; round++ { // absolute anchor for the hybrid row
		if t := cpuWindow(gens[hub]); t > tps[hub] {
			tps[hub] = t
		}
	}
	const pairs = 31
	for i := 0; i < hub; i++ {
		ratios := make([]float64, 0, pairs)
		for p := 0; p < pairs; p++ {
			var rh, ri float64
			if p%2 == 0 { // alternate order to cancel cache-carryover bias
				rh, ri = cpuWindow(gens[hub]), cpuWindow(gens[i])
			} else {
				ri, rh = cpuWindow(gens[i]), cpuWindow(gens[hub])
			}
			ratios = append(ratios, ri/rh)
		}
		sort.Float64s(ratios)
		tps[i] = tps[hub] * ratios[pairs/2]
	}
	baseTPS := tps[0] // policies[0] is the unprotected baseline

	out := &benchChaosResult{
		Model: cfg.Name, Fault: numerics.ExponentBit.String(),
		MixWeight: mix.Weight, MixKV: mix.KV, TrialsPerPolicy: trials,
	}
	for i, pol := range policies {
		spec := campaign.Spec{
			ModelCfg: cfg, ModelSeed: seed, DType: numerics.FP16,
			Fault: numerics.ExponentBit, Method: pol.method,
			FT2Opts: core.Defaults(), Policy: pol.policy,
			Dataset: ds, Trials: trials, BaseSeed: seed + 2000,
			Targets: mix,
		}
		res, err := campaign.Run(spec)
		if err != nil {
			return nil, err
		}
		tiers := "none"
		if pol.policy != nil {
			tiers = pol.policy.String()
		} else if pol.method == arch.MethodFT2 {
			tiers = "ft2 (all kinds)"
		}
		out.Policies = append(out.Policies, benchChaosPolicyResult{
			Policy: pol.name, Tiers: tiers,
			Trials: res.Completed, SDCCount: res.SDC.Successes,
			SDCRate:      res.SDC.P(),
			TokensPerSec: tps[i],
			OverheadPct:  (baseTPS/tps[i] - 1) * 100,
		})
	}

	// Dominance: the hybrid must beat every single method on SDC separably
	// (Wilson 95% intervals of the two counts do not overlap) and cost no
	// more than any protected single method. The TPS comparison allows 3% —
	// the resolution limit of the paired-ratio estimator on a shared machine.
	hybrid := out.Policies[len(out.Policies)-1]
	dominates := true
	for _, p := range out.Policies[:len(out.Policies)-1] {
		if !hybrid.sdc().Below(p.sdc()) {
			dominates = false
		}
		if p.Policy != "none" && hybrid.TokensPerSec < 0.97*p.TokensPerSec {
			dominates = false
		}
	}
	out.HybridDominates = dominates
	return out, nil
}

// chaosPolicy is one protection configuration of the chaos Pareto: an
// architectural method, or a per-layer-kind tier policy run by the hybrid
// controller.
type chaosPolicy struct {
	name   string
	method arch.Method
	policy *protect.Policy
}

// chaosPolicies lists the chaos Pareto's five configurations for a family.
func chaosPolicies(family model.Family) []chaosPolicy {
	uniform := func(tier protect.Tier) *protect.Policy {
		p := &protect.Policy{Tiers: make(map[model.LayerKind]protect.Tier)}
		for _, k := range family.LayerKinds() {
			p.Tiers[k] = tier
		}
		return p
	}
	adaptive := &protect.Policy{Tiers: map[model.LayerKind]protect.Tier{
		model.KProj:    protect.TierNone,
		model.QProj:    protect.TierNone,
		model.VProj:    protect.TierABFTFT2,
		model.OutProj:  protect.TierABFTFT2,
		model.UpProj:   protect.TierABFTFT2,
		model.GateProj: protect.TierABFTFT2,
		model.DownProj: protect.TierABFTFT2,
	}}
	return []chaosPolicy{
		{"none", arch.MethodNone, nil},
		{"ft2", arch.MethodFT2, nil},
		{"abft", arch.MethodNone, uniform(protect.TierABFT)},
		{"dmr", arch.MethodNone, uniform(protect.TierDMR)},
		{"hybrid", arch.MethodNone, adaptive},
	}
}

// chaosGenerator builds a policy's decode generator on m: the protected
// policies generate through their controller, so the timed generations run
// the protection they are labelled with.
func chaosGenerator(m *model.Model, pol chaosPolicy) func(dst, prompt []int, n int) []int {
	switch {
	case pol.policy != nil:
		return core.NewHybrid(m, core.Defaults(), pol.policy, nil).GenerateInto
	case pol.method == arch.MethodFT2:
		return core.New(m, core.Defaults()).GenerateInto
	default:
		return bare(m)
	}
}

// bare is the unprotected generator of m: its GenerateInto with no
// call-scoped hooks.
func bare(m *model.Model) func(dst, prompt []int, n int) []int {
	return func(dst, prompt []int, n int) []int { return m.GenerateInto(dst, prompt, n) }
}

// benchServe measures the serving layer at 1, 4, and 16 concurrent clients
// running protected generations — batched, plus a BatchMax=1 serial-fallback
// comparison at the highest concurrency — and verifies every served output
// against the GenerateInto oracle. The server runs its production feature
// set: mixed-phase fused batching plus the prefix cache (the load repeats a
// small prompt set, the shape the cache exists for); the baseline is the
// naive alternative — one protected GenerateInto per request, nothing
// shared — so the speedup column prices the serving stack as a whole.
func benchServe(seed int64, procs int) ([]benchServeResult, error) {
	const (
		prompts       = 8
		maxTokens     = 32
		reqsPerClient = 6
		serialRounds  = 3 // repeat the serial loop so both sides time ≥100s of ms
	)
	cfg := serve.Config{Model: "llama2-7b-sim", Seed: seed, PrefixCacheMB: 32}
	ds, err := data.ByName("squad-sim", prompts)
	if err != nil {
		return nil, err
	}
	promptFor := func(i int) []int { return ds.Inputs[i%prompts].Prompt }

	probe, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ecfg := probe.Config()
	probe.Shutdown(context.Background())

	// Oracle outputs, and the serial baseline: the same prompt set generated
	// one-by-one on a single prebuilt protected model, so the baseline times
	// pure generation (weight init excluded) — the fair comparison for the
	// scheduler's aggregate throughput.
	oracle := make([][]int, prompts)
	for i := 0; i < prompts; i++ {
		toks, _, err := serve.Oracle(ecfg, promptFor(i), maxTokens, true)
		if err != nil {
			return nil, err
		}
		oracle[i] = toks
	}
	m, err := model.New(ecfg.ModelCfg, ecfg.Seed, ecfg.DType)
	if err != nil {
		return nil, err
	}
	f := core.New(m, ecfg.FT2Opts)
	f.Generate(promptFor(0), maxTokens) // warm up scratch arenas
	serialStart := time.Now()
	serialTokens := 0
	for r := 0; r < serialRounds; r++ {
		for i := 0; i < prompts; i++ {
			serialTokens += len(f.Generate(promptFor(i), maxTokens))
		}
	}
	serialTPS := float64(serialTokens) / time.Since(serialStart).Seconds()

	run := func(clients, batchMax int) (benchServeResult, error) {
		rcfg := cfg
		rcfg.BatchMax = batchMax
		srv, err := serve.New(rcfg)
		if err != nil {
			return benchServeResult{}, err
		}
		spec := serve.LoadSpec{
			Clients: clients, Requests: clients * reqsPerClient,
			MaxTokens: maxTokens, Protected: true, PromptFor: promptFor,
		}
		// One warm-up pass on the same server (scratch arenas, prefix cache,
		// cost-model state) so the timed pass measures steady-state serving —
		// the serial baseline got the same courtesy above. The oracle check
		// runs on the timed pass.
		srv.RunLoad(context.Background(), spec)
		st := srv.RunLoad(context.Background(), spec)
		srv.Shutdown(context.Background())
		match := st.Failed == 0
		for i, res := range st.Results {
			want := oracle[i%prompts]
			if len(res.Tokens) != len(want) {
				match = false
				break
			}
			for j := range want {
				if res.Tokens[j] != want[j] {
					match = false
				}
			}
		}
		return benchServeResult{
			GOMAXPROCS:         procs,
			Batched:            batchMax != 1,
			Clients:            clients,
			Requests:           st.Requests,
			TokensPerSec:       st.TokensPerSec,
			SerialTokensPerSec: serialTPS,
			SpeedupVsSerial:    st.TokensPerSec / serialTPS,
			OracleMatch:        match,
		}, nil
	}

	var out []benchServeResult
	for _, clients := range []int{1, 4, 16} {
		res, err := run(clients, 0) // 0 = default BatchMax (MaxSessions)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	// Serial-fallback comparison: same load, fusion disabled.
	res, err := run(16, 1)
	if err != nil {
		return nil, err
	}
	return append(out, res), nil
}

// benchPrefix measures the prefix cache on the production chat shape: 64
// clients over 64 distinct prompts that share 90% of their tokens. Cold and
// warm servers run the identical load with the identical prefill grain — the
// only difference is the cache — and each side reports its best of two
// rounds so one noisy round cannot skew the comparison. The warm computed
// prefill tokens come from the server's own counters around the measured
// round, so the ratio is what the scheduler actually computed, not an
// estimate.
func benchPrefix(seed int64) (*benchPrefixResult, error) {
	const (
		clients    = 64
		requests   = 64
		promptLen  = 96
		sharedFrac = 0.9
		maxTokens  = 24
		rounds     = 2
	)
	base := serve.Config{Model: "llama2-7b-sim", Seed: seed, PrefillChunk: 64}
	spec := serve.SharedPrefixLoad(clients, requests, maxTokens, promptLen, sharedFrac, seed, false)

	probe, err := serve.New(base)
	if err != nil {
		return nil, err
	}
	ecfg := probe.Config()
	probe.Shutdown(context.Background())
	oracle := make([][]int, requests)
	for i := range oracle {
		if oracle[i], _, err = serve.Oracle(ecfg, spec.PromptFor(i), maxTokens, false); err != nil {
			return nil, err
		}
	}

	res := &benchPrefixResult{
		Model: base.Model, Clients: clients, Requests: requests,
		PromptLen: promptLen, SharedFrac: sharedFrac, MaxTokens: maxTokens,
		OracleMatch: true,
	}
	// The unique work the warm pass cannot avoid: everything past the
	// longest prompt prefix common to the whole set.
	shared := len(spec.PromptFor(0))
	for i := 1; i < requests; i++ {
		p := spec.PromptFor(i)
		n := 0
		for n < shared && n < len(p) && p[n] == spec.PromptFor(0)[n] {
			n++
		}
		shared = n
	}
	res.UniqueSuffixTokens = int64(requests * (promptLen - shared))

	run := func(cacheMB int) error {
		cfg := base
		cfg.PrefixCacheMB = cacheMB
		srv, err := serve.New(cfg)
		if err != nil {
			return err
		}
		defer srv.Shutdown(context.Background())
		warm := cacheMB > 0
		if warm { // untimed priming pass populates the cache
			if st := srv.RunLoad(context.Background(), spec); st.Failed > 0 {
				return fmt.Errorf("prefix bench priming pass: %d requests failed", st.Failed)
			}
		}
		for round := 0; round < rounds; round++ {
			prefill0, prompt0, _ := srv.PrefillCounters()
			st := srv.RunLoad(context.Background(), spec)
			if st.Failed > 0 {
				return fmt.Errorf("prefix bench (cache %d MiB): %d requests failed", cacheMB, st.Failed)
			}
			for i, r := range st.Results {
				if !equalIntSlices(r.Tokens, oracle[i]) {
					res.OracleMatch = false
				}
			}
			prefill1, prompt1, _ := srv.PrefillCounters()
			if warm {
				if st.TokensPerSec > res.WarmTokensPerSec {
					res.WarmTokensPerSec = st.TokensPerSec
				}
				res.WarmPrefillTokens = prefill1 - prefill0
				res.PromptTokens = prompt1 - prompt0
				res.WarmCacheHits = srv.PrefixStats().Hits
			} else if st.TokensPerSec > res.ColdTokensPerSec {
				res.ColdTokensPerSec = st.TokensPerSec
			}
		}
		return nil
	}
	if err := run(0); err != nil {
		return nil, err
	}
	if err := run(64); err != nil {
		return nil, err
	}
	res.SpeedupWarmVsCold = res.WarmTokensPerSec / res.ColdTokensPerSec
	if res.UniqueSuffixTokens > 0 {
		res.PrefillVsUniqueRatio = float64(res.WarmPrefillTokens) / float64(res.UniqueSuffixTokens)
	}
	return res, nil
}

func equalIntSlices(a, b []int) bool {
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
