package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ft2/internal/data"
	"ft2/internal/model"
	"ft2/internal/protect"
)

// modelName and weightSeed fix the served model for every workload; the
// workload seed varies only the generated inputs.
const (
	modelName  = "llama2-7b-sim"
	weightSeed = 42
)

// warmup is the open-loop lead-in whose requests are served and
// oracle-checked but kept out of the timed metrics: it fills the scheduler's
// reusable buffers, the KV state pool and (on rag-hybrid) the prefix cache,
// so the timed window measures steady state.
const warmup = 2 * time.Second

// workload is one protection configuration measured two ways: online, as
// an open-loop traffic mix against serve.Server, and offline, as the
// paper's fault-injection campaign under the same protection. Every
// end-to-end metric must read non-zero on every workload, so the campaign
// is a phase of each workload rather than a workload of its own.
type workload struct {
	name string
	// rate is the offered load in requests per second.
	rate float64
	// promptLen tokens per prompt, sharedFrac of them a common prefix.
	promptLen  int
	sharedFrac float64
	// promptPool distinct prompts are drawn from uniformly at random; the
	// oracle is memoized per (prompt, protection), so the pool bounds its
	// cost. On rag-hybrid the pool is also the cache's working set.
	promptPool int
	maxTokens  int
	// protectEvery: request i is protected when i%protectEvery == 0.
	protectEvery int
	// prefixCacheMB is the prefix cache budget (0 = off).
	prefixCacheMB int
	// policy is the adaptive per-kind protection of served requests and
	// campaign trials (nil = plain FT2).
	policy *protect.Policy
	// requireCorrections fails the run unless the served FT2 corrections are
	// non-zero: a protected workload that times a bare model would read zero.
	requireCorrections bool
	// ttftLimit and tpotLimit are the service-level limits a request must
	// meet for its tokens to count toward goodput. BENCHMARK.json states the
	// same limits in the workload's "why".
	ttftLimit, tpotLimit time.Duration

	// campaignInputs is the squad-sim input count of the campaign phase and
	// trialsPerRun the trials of each of its timed campaign.Run calls.
	campaignInputs, trialsPerRun int
}

// chaosAdaptivePolicy is the hybrid policy of the chaos Pareto bench: the
// K/Q projections go unprotected, every other kind runs ABFT repair stacked
// under the FT2 clamp.
func chaosAdaptivePolicy() *protect.Policy {
	return &protect.Policy{Tiers: map[model.LayerKind]protect.Tier{
		model.KProj:    protect.TierNone,
		model.QProj:    protect.TierNone,
		model.VProj:    protect.TierABFTFT2,
		model.OutProj:  protect.TierABFTFT2,
		model.GateProj: protect.TierABFTFT2,
		model.UpProj:   protect.TierABFTFT2,
		model.DownProj: protect.TierABFTFT2,
	}}
}

var workloads = map[string]workload{
	"chat-ft2": {
		name: "chat-ft2", rate: 60,
		promptLen: 16, sharedFrac: 0, promptPool: 256,
		maxTokens: 64, protectEvery: 1, requireCorrections: true,
		campaignInputs: 10, trialsPerRun: 500,
		ttftLimit: 50 * time.Millisecond, tpotLimit: 2 * time.Millisecond,
	},
	"rag-hybrid": {
		name: "rag-hybrid", rate: 40,
		promptLen: 192, sharedFrac: 0.9, promptPool: 160,
		maxTokens: 16, protectEvery: 2,
		prefixCacheMB: 32, policy: chaosAdaptivePolicy(),
		campaignInputs: 10, trialsPerRun: 500,
		ttftLimit: 100 * time.Millisecond, tpotLimit: 5 * time.Millisecond,
	},
}

// workloadNames lists every workload in BENCHMARK.json order.
var workloadNames = []string{"chat-ft2", "rag-hybrid"}

// request is one scheduled request of an open-loop run.
type request struct {
	due       time.Duration // offset from the run's start
	prompt    int           // index into the prompt pool
	protected bool
}

// schedule builds the open-loop arrival schedule of a workload: a Poisson
// process at w.rate over the warm-up and then over the timed window, each
// conditioned on its expected count (round(rate·span) arrivals placed
// uniformly at random and sorted), so every seed offers the timed window
// exactly the same load and goodput does not carry the count's Poisson
// noise.
func (w workload) schedule(seed int64, seconds time.Duration) []request {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 17))
	var dues []time.Duration
	for _, span := range [][2]time.Duration{{0, warmup}, {warmup, warmup + seconds}} {
		n := int(w.rate*(span[1]-span[0]).Seconds() + 0.5)
		part := make([]time.Duration, n)
		for i := range part {
			part[i] = span[0] + time.Duration(rng.Int63n(int64(span[1]-span[0])))
		}
		sort.Slice(part, func(i, j int) bool { return part[i] < part[j] })
		dues = append(dues, part...)
	}
	reqs := make([]request, len(dues))
	for i := range reqs {
		reqs[i] = request{
			due:       dues[i],
			prompt:    rng.Intn(w.promptPool),
			protected: i%w.protectEvery == 0,
		}
	}
	return reqs
}

// prompts returns the workload's prompt pool for a seed.
func (w workload) prompts(seed int64) [][]int {
	return data.SharedPrefixPrompts(w.promptPool, w.promptLen, w.sharedFrac, seed)
}

// limitsText renders the service-level limits as BENCHMARK.json states them.
func (w workload) limitsText() string {
	return fmt.Sprintf("TTFT<=%dms TPOT<=%dms",
		w.ttftLimit.Milliseconds(), w.tpotLimit.Milliseconds())
}
