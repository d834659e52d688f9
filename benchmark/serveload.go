package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"ft2/internal/serve"
	"ft2/internal/tensor"
)

// setupReps is how many times a run repeats its set-up; setup_s is their
// median, so one slow calibration cannot move the figure.
const setupReps = 5

// config is the serve.Config a workload runs: the ft2serve defaults (f32
// weights, one replica per CPU, default slice, batch and queue sizes) plus
// the workload's cache budget and protection policy.
func (w workload) config() serve.Config {
	return serve.Config{
		Model:         modelName,
		Seed:          weightSeed,
		Replicas:      runtime.NumCPU(),
		PrefixCacheMB: w.prefixCacheMB,
		ProtectPolicy: w.policy,
	}
}

// setup performs the workload's set-up setupReps times — kernel cost model
// calibration, serve.New, and the campaign's dataset and config build — and
// returns the last server and campaign set-up with the duration of every
// repetition. Earlier servers are shut down unused.
//
// Each repetition calibrates and installs a cost model as a server start
// does (tensor.AutoCalibrate); afterwards the element-wise median of the
// repetitions' models is installed. One calibration's constants vary by
// up to 3x between starts on a shared host, enough to flip dispatch plans
// between runs; the median keeps the plans of a run representative.
func setup(w workload) (*serve.Server, campaignSetup, []float64, error) {
	var srv *serve.Server
	var cs campaignSetup
	var secs []float64
	var models []*tensor.CostModel
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			if err := srv.Shutdown(context.Background()); err != nil {
				return nil, cs, nil, err
			}
		}
		t0 := time.Now()
		models = append(models, tensor.AutoCalibrate())
		s, err := serve.New(w.config())
		if err != nil {
			return nil, cs, nil, err
		}
		if cs, err = newCampaignSetup(w); err != nil {
			return nil, cs, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		srv = s
	}
	tensor.SetCostModel(medianCostModel(models))
	runtime.GC() // drop the discarded repetitions before peak memory counts
	return srv, cs, secs, nil
}

// medianCostModel is the element-wise median of calibrated cost models.
func medianCostModel(models []*tensor.CostModel) *tensor.CostModel {
	med := *models[len(models)-1]
	pick := func(f func(cm *tensor.CostModel) float64) float64 {
		xs := make([]float64, len(models))
		for i, cm := range models {
			xs[i] = f(cm)
		}
		return median(xs)
	}
	for k := range med.SerialNsPerMadd {
		for c := range med.SerialNsPerMadd[k] {
			med.SerialNsPerMadd[k][c] = pick(func(cm *tensor.CostModel) float64 { return cm.SerialNsPerMadd[k][c] })
		}
	}
	med.PoolDispatchNs = pick(func(cm *tensor.CostModel) float64 { return cm.PoolDispatchNs })
	med.PoolChunkNs = pick(func(cm *tensor.CostModel) float64 { return cm.PoolChunkNs })
	med.ParallelEff = pick(func(cm *tensor.CostModel) float64 { return cm.ParallelEff })
	return &med
}

// reqRecord is what the generator observed of one request.
type reqRecord struct {
	req    request
	late   time.Duration // generator lateness: send time − due time
	submit time.Duration // duration of the Submit call
	// tokens are the arrival offsets (from the run's start) of the tokens
	// read off Session.Tokens.
	tokens []time.Duration
	res    serve.Result
	err    error
}

// inWindow reports whether the request was due inside the timed window.
func (r *reqRecord) inWindow() bool { return r.req.due >= warmup }

// runOpenLoop drives srv with the schedule from this goroutine — the one
// generator — sending each request at its due time whatever the state of
// earlier ones. Every session gets a reader goroutine that timestamps its
// tokens; runOpenLoop returns once every session has settled.
func runOpenLoop(ctx context.Context, srv *serve.Server, w workload, reqs []request, prompts [][]int) []reqRecord {
	recs := make([]reqRecord, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		r := &recs[i]
		r.req = reqs[i]
		if d := r.req.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		r.late = time.Since(start) - r.req.due
		t0 := time.Now()
		sess, err := srv.Submit(ctx, serve.Request{
			PromptTokens: prompts[r.req.prompt],
			MaxTokens:    w.maxTokens,
			Protected:    r.req.protected,
		})
		r.submit = time.Since(t0)
		if err != nil {
			r.err = err
			continue
		}
		r.tokens = make([]time.Duration, 0, w.maxTokens)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range sess.Tokens() {
				r.tokens = append(r.tokens, time.Since(start))
			}
			r.res, r.err = sess.Wait(ctx)
		}()
	}
	wg.Wait()
	return recs
}

// oracleKey identifies one memoized oracle run.
type oracleKey struct {
	prompt    int
	protected bool
}

// oracleOut is serve.Oracle's answer for one key.
type oracleOut struct {
	tokens []int
	corr   serve.Corrections
}

// computeOracles runs serve.Oracle once per distinct (prompt, protection)
// the records used, on workers goroutines.
func computeOracles(cfg serve.Config, prompts [][]int, maxTokens int, recs []reqRecord, workers int) (map[oracleKey]oracleOut, error) {
	var keys []oracleKey
	seen := map[oracleKey]bool{}
	for i := range recs {
		k := oracleKey{recs[i].req.prompt, recs[i].req.protected}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	outs := make([]oracleOut, len(keys))
	errs := make([]error, len(keys))
	next := make(chan int, len(keys)) // every index queued up front
	for i := range keys {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				toks, corr, err := serve.Oracle(cfg, prompts[keys[i].prompt], maxTokens, keys[i].protected)
				outs[i], errs[i] = oracleOut{toks, corr}, err
			}
		}()
	}
	wg.Wait()
	m := make(map[oracleKey]oracleOut, len(keys))
	for i, k := range keys {
		if errs[i] != nil {
			return nil, fmt.Errorf("oracle for prompt %d: %w", k.prompt, errs[i])
		}
		m[k] = outs[i]
	}
	return m, nil
}

// checkServed compares every settled request with its oracle: the tokens
// and the correction counters must match exactly. It returns which records
// failed (an error or a mismatch) and how many mismatched.
func checkServed(recs []reqRecord, oracles map[oracleKey]oracleOut) (bad []bool, mismatches int) {
	bad = make([]bool, len(recs))
	for i := range recs {
		r := &recs[i]
		if r.err != nil {
			bad[i] = true
			continue
		}
		o, ok := oracles[oracleKey{r.req.prompt, r.req.protected}]
		if !ok || !slices.Equal(r.res.Tokens, o.tokens) || !reflect.DeepEqual(r.res.Corrections, o.corr) ||
			len(r.tokens) != len(o.tokens) {
			bad[i] = true
			mismatches++
		}
	}
	return bad, mismatches
}

// correctionTotal sums one response's FT2 corrections.
func correctionTotal(c serve.Corrections) int { return c.OutOfBound + c.NaN + c.FirstTokenNaN }

// servedCorrections sums the corrections of the successful protected
// records, served and per the oracle.
func servedCorrections(recs []reqRecord, oracles map[oracleKey]oracleOut) (served, oracle int) {
	for i := range recs {
		r := &recs[i]
		if r.err != nil || !r.req.protected {
			continue
		}
		served += correctionTotal(r.res.Corrections)
		oracle += correctionTotal(oracles[oracleKey{r.req.prompt, r.req.protected}].corr)
	}
	return served, oracle
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// subWindows splits the timed window by due time; each latency metric is
// the median of its per-sub-window values, so a stretch of a few seconds in
// which the shared host runs slow moves one sub-window, not the figure.
const subWindows = 6

// serveEndToEnd derives the serving end-to-end metrics from the requests due
// in the timed window. A request that failed, was refused or mismatched its
// oracle counts as missing both limits. Goodput divides the good requests'
// tokens by the wall time from the window's start to its last token. It
// returns, for the record, the sample counts, every metric's per-sub-window
// values and the pooled p50/p90/p99s.
func serveEndToEnd(w workload, recs []reqRecord, bad []bool, seconds time.Duration, out *metricSet) map[string]any {
	ttft := make([][]float64, subWindows)
	tpot := make([][]float64, subWindows)
	itl := make([][]float64, subWindows)
	goodTokens := 0
	var lastToken time.Duration
	for i := range recs {
		r := &recs[i]
		if !r.inWindow() || bad[i] || len(r.tokens) == 0 {
			continue
		}
		sw := min(int(int64(r.req.due-warmup)*subWindows/int64(seconds)), subWindows-1)
		first := r.tokens[0] - r.req.due
		ttft[sw] = append(ttft[sw], ms(first))
		n := len(r.tokens)
		lastToken = max(lastToken, r.tokens[n-1])
		var perTok time.Duration
		if n > 1 {
			perTok = (r.tokens[n-1] - r.tokens[0]) / time.Duration(n-1)
			tpot[sw] = append(tpot[sw], ms(perTok))
			for j := 1; j < n; j++ {
				itl[sw] = append(itl[sw], ms(r.tokens[j]-r.tokens[j-1]))
			}
		}
		if first <= w.ttftLimit && perTok <= w.tpotLimit {
			goodTokens += n
		}
	}

	record := map[string]any{}
	for _, m := range []struct {
		name    string
		windows [][]float64
		q       float64
	}{
		{"ttft_p50_ms", ttft, 0.5}, {"tpot_p50_ms", tpot, 0.5},
	} {
		record[m.name+"_by_window"] = out.setWindowed(m.name, m.windows, m.q, "ms")
	}
	out.set("goodput_tok_per_s", float64(goodTokens)/(lastToken-warmup).Seconds(), "tok/s")

	for _, s := range []struct {
		name    string
		windows [][]float64
	}{{"ttft", ttft}, {"tpot", tpot}, {"itl", itl}} {
		all := slices.Concat(s.windows...)
		record[s.name+"_samples"] = len(all)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			if v, err := quantile(all, q); err == nil {
				record[fmt.Sprintf("%s_p%g_ms_pooled", s.name, q*100)] = v
			}
		}
	}
	return record
}

// scrapeMetrics reads the server's /metrics through its handler and returns
// every sample keyed by its full name (labels included).
func scrapeMetrics(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
