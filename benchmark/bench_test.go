package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"ft2/internal/campaign"
	"ft2/internal/core"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/serve"
	"ft2/internal/stats"
)

func TestScheduleAndPromptsDeterministicPerSeed(t *testing.T) {
	const seconds = 3 * time.Second
	for _, name := range workloadNames {
		w := workloads[name]
		a, b := w.schedule(7, seconds), w.schedule(7, seconds)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: schedule differs between two builds with seed 7", name)
		}
		if reflect.DeepEqual(a, w.schedule(8, seconds)) {
			t.Errorf("%s: seeds 7 and 8 give the same schedule", name)
		}
		if !reflect.DeepEqual(w.prompts(7), w.prompts(7)) {
			t.Errorf("%s: prompts differ between two builds with seed 7", name)
		}
		if reflect.DeepEqual(w.prompts(7), w.prompts(8)) {
			t.Errorf("%s: seeds 7 and 8 give the same prompts", name)
		}
		inWindow := 0
		for i, r := range a {
			if i > 0 && r.due < a[i-1].due {
				t.Fatalf("%s: schedule not sorted at %d", name, i)
			}
			if r.due >= warmup {
				inWindow++
			}
		}
		if want := int(w.rate*seconds.Seconds() + 0.5); inWindow != want {
			t.Errorf("%s: %d requests due in the timed window, want exactly %d", name, inWindow, want)
		}
	}
}

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: quantile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		q       float64
		n       int
		ok      bool
		wantVal float64
	}{
		{0.99, 999, false, 0},
		{0.99, 1000, true, 990},
		{0.90, 99, false, 0},
		{0.90, 100, true, 90},
		{0.50, 19, false, 0},
		{0.50, 20, true, 10},
		{0.50, 0, false, 0},
	} {
		v, err := quantile(sample(tc.n), tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("quantile(q=%g, n=%d): err=%v, want ok=%v", tc.q, tc.n, err, tc.ok)
			continue
		}
		if tc.ok && v != tc.wantVal {
			t.Errorf("quantile(q=%g, n=%d) = %g, want %g", tc.q, tc.n, v, tc.wantVal)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, n := range append(append([]string(nil), endToEndNames...), perLayerNames...) {
		if !valid.MatchString(n) {
			t.Errorf("metric name %q does not match %s", n, valid)
		}
		if seen[n] {
			t.Errorf("metric name %q used twice", n)
		}
		seen[n] = true
	}
	names := func(ms []struct{ Name, Unit, Better string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(bf.EndToEnd); !reflect.DeepEqual(got, endToEndNames) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", got, endToEndNames)
	}
	if got := names(bf.PerLayer); !reflect.DeepEqual(got, perLayerNames) {
		t.Errorf("BENCHMARK.json per_layer %v, program prints %v", got, perLayerNames)
	}
	var wl []string
	for _, w := range bf.Workloads {
		wl = append(wl, w.Name)
		if lim := workloads[w.Name].limitsText(); !strings.Contains(w.Why, lim) {
			t.Errorf("workload %s: why %q does not state the limits %q", w.Name, w.Why, lim)
		}
	}
	if !reflect.DeepEqual(wl, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", wl, workloadNames)
	}
}

func TestOracleCheckRejectsAlteredOutput(t *testing.T) {
	w := workloads["chat-ft2"]
	cfg, err := w.config().WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	// A prompt on which FT2 corrects something, so the correction
	// comparison below is not vacuous.
	var prompts [][]int
	var toks []int
	var corr serve.Corrections
	for _, p := range w.prompts(3) {
		if toks, corr, err = serve.Oracle(cfg, p, w.maxTokens, true); err != nil {
			t.Fatal(err)
		}
		if correctionTotal(corr) > 0 {
			prompts = [][]int{p}
			break
		}
	}
	if prompts == nil {
		t.Fatal("FT2 corrected nothing on any prompt")
	}
	served := func() []reqRecord {
		r := reqRecord{
			req:    request{prompt: 0, protected: true},
			tokens: make([]time.Duration, len(toks)),
			res:    serve.Result{Tokens: append([]int(nil), toks...), Corrections: corr},
		}
		return []reqRecord{r}
	}
	oracles, err := computeOracles(cfg, prompts, w.maxTokens, served(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if bad, n := checkServed(served(), oracles); n != 0 || bad[0] {
		t.Fatalf("unaltered output rejected: %d mismatches", n)
	}

	altered := served()
	altered[0].res.Tokens[5] = (altered[0].res.Tokens[5] + 1) % cfg.ModelCfg.Vocab
	if bad, n := checkServed(altered, oracles); n != 1 || !bad[0] {
		t.Errorf("altered token accepted: %d mismatches", n)
	}
	altered = served()
	altered[0].res.Corrections.OutOfBound++
	if bad, n := checkServed(altered, oracles); n != 1 || !bad[0] {
		t.Errorf("altered correction count accepted: %d mismatches", n)
	}
	altered = served()
	altered[0].tokens = altered[0].tokens[1:]
	if _, n := checkServed(altered, oracles); n != 1 {
		t.Errorf("a lost streamed token accepted: %d mismatches", n)
	}
}

func TestCampaignCheckRejectsAlteredCounts(t *testing.T) {
	a := campaign.Result{SDC: stats.Proportion{Successes: 3, Trials: 500}, Completed: 500}
	b := a
	if !campaignResultsEqual(a, b) {
		t.Fatal("identical results compared unequal")
	}
	b.SDC.Successes++
	if campaignResultsEqual(a, b) {
		t.Error("an extra SDC compared equal")
	}
	b = a
	b.Corrections.OutOfBound++
	if campaignResultsEqual(a, b) {
		t.Error("an extra correction compared equal")
	}
}

func TestReplayChecksEveryProtectedLayerFired(t *testing.T) {
	cfg, err := model.ConfigByName(modelName)
	if err != nil {
		t.Fatal(err)
	}
	if err := newHookShim().checkFired(cfg, "unwired controller"); err == nil {
		t.Fatal("a protection hook that never fired passed the check")
	}
	m, err := model.New(cfg, weightSeed, numerics.FP16)
	if err != nil {
		t.Fatal(err)
	}
	rp := &replay{
		m: m, cfg: cfg, prompts: workloads["chat-ft2"].prompts(1)[:2],
		newCtl:    func() protector { return core.New(m, core.Defaults()) },
		protected: func(int) bool { return true },
	}
	res, err := rp.forwardGroup(2, 16, 4)
	if err != nil {
		t.Fatalf("fully protected mixed group: %v", err)
	}
	if len(res.shims) != 3 {
		t.Errorf("%d timed controllers, want 3 (two decode rows and a prefill chunk)", len(res.shims))
	}
}
