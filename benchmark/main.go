// Command benchmark is the repository's end-to-end benchmark. Each workload
// is one protection configuration of llama2-7b-sim measured two ways: an
// open-loop request stream through serve.Server.Submit, and back-to-back
// fault-injection campaigns (campaign.Run) under the same protection.
//
//	bash benchmark/run.sh --workload chat-ft2 --seed 1 --seconds 50 --trace 0
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 the run also replays each layer's public
// API at the shapes the run observed and reports the per-layer metrics
// instead (the traced run's own end-to-end figures are printed on the line
// before). Every served request is checked against serve.Oracle and one
// campaign per run against an unforked re-run; any mismatch makes the run
// exit 1 after printing its result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: chat-ft2 or rag-hybrid")
	seed := fs.Int64("seed", 1, "workload seed: prompts, arrival schedule and campaign seeds derive from it")
	seconds := fs.Int("seconds", 50, "measured seconds (two thirds serving, one third campaigns)")
	trace := fs.Int("trace", 0, "1 replays every layer and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchmark: need --workload %v, --seconds >= 1, --trace 0|1\n", workloadNames)
		return 2
	}
	// One P per CPU for the system under test (server replicas and campaign
	// workers are pinned to NumCPU), plus one for the load generator and the
	// token readers. They sleep almost always; without their own P they wait
	// for a replica worker to yield, which delays sends and token timestamps
	// by up to a scheduling slice and made TTFT and ITL spread 30–75% between
	// runs instead of 8–18%.
	runtime.GOMAXPROCS(runtime.NumCPU() + 1)

	out, err := measure(context.Background(), w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		fmt.Fprintln(stderr, "benchmark: correctness check failed")
		return 1
	}
	return 0
}

// measure runs one workload and returns the result line. Provenance, the
// correctness checks and (traced) the run's end-to-end figures are written
// to stdout as JSON lines before it.
func measure(ctx context.Context, w workload, seed int64, seconds time.Duration, traced bool, stdout, stderr io.Writer) (result, error) {
	// The campaign phase runs in two halves, one before serving and one
	// after, so trials_per_s samples the host at both ends of the run: the
	// host's speed drifts by ±20% over tens of seconds, and one contiguous
	// block of campaigns spread 0.15–0.27 between seeds where two halves
	// 30 s apart spread about 0.10.
	campaignSecs := seconds / 3
	serveSecs := seconds - campaignSecs
	began := time.Now()
	phase := func(what string) {
		fmt.Fprintf(stderr, "benchmark: %6.1fs %s\n", time.Since(began).Seconds(), what)
	}

	srv, cs, setupSecs, err := setup(w)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	prov := provenance(w.name, seed)
	phase("set up")
	runs, err := runCampaigns(cs, w, seed, 0, campaignSecs/2, traced)
	if err != nil {
		return result{}, err
	}
	runtime.GC() // serve from a clean heap, as without the first half
	phase("first campaign half run")

	prompts := w.prompts(seed)
	reqs := w.schedule(seed, serveSecs)
	var before map[string]float64
	if traced {
		before = scrapeMetrics(srv.Handler())
	}
	recs := runOpenLoop(ctx, srv, w, reqs, prompts)
	var sv serverView
	if traced {
		sv = observeServer(srv, before)
	}
	ecfg := srv.Config()
	if err := srv.Shutdown(ctx); err != nil {
		return result{}, fmt.Errorf("shutdown: %w", err)
	}

	phase("served")
	late, err := runCampaigns(cs, w, seed, len(runs), campaignSecs-campaignSecs/2, traced)
	if err != nil {
		return result{}, err
	}
	runs = append(runs, late...)
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}

	phase("second campaign half run")

	// Correctness, off the clock.
	checks := &checkLog{}
	oracles, err := computeOracles(ecfg, prompts, w.maxTokens, recs, runtime.GOMAXPROCS(0))
	if err != nil {
		return result{}, err
	}
	bad, mismatches := checkServed(recs, oracles)
	checks.add("served tokens and corrections equal serve.Oracle", mismatches == 0,
		fmt.Sprintf("%d of %d requests mismatched", mismatches, len(recs)))
	served, oracle := servedCorrections(recs, oracles)
	if w.requireCorrections {
		checks.add("served FT2 corrections are non-zero and equal the oracle's", served > 0 && served == oracle,
			fmt.Sprintf("served %d, oracle %d", served, oracle))
	}
	phase("oracle checked")
	verify := runs[int(uint64(seed)%uint64(len(runs)))]
	same, err := verifyCampaign(cs, seed, verify)
	if err != nil {
		return result{}, err
	}
	checks.add("campaign SDC and corrections equal an unforked re-run", same,
		fmt.Sprintf("run %d of %d, %d trials", verify.index, len(runs), verify.trials))

	phase("campaign verified")

	// Operations: every request, every campaign trial, and the unforked
	// verification counted as one more operation.
	out := result{Attempted: len(recs) + 1, Metrics: map[string]metricValue{}}
	for i := range recs {
		if bad[i] {
			out.Failed++
		}
	}
	for _, cr := range runs {
		out.Attempted += cr.trials
		out.Failed += cr.res.Failed
	}
	if !same {
		out.Failed++
	}

	e2e := newMetricSet()
	samples := serveEndToEnd(w, recs, bad, serveSecs, e2e)
	var rates []float64
	for _, cr := range runs {
		rates = append(rates, float64(cr.res.Completed)/cr.secs)
	}
	e2e.set("trials_per_s", campaignThroughput(runs), "trials/s")
	e2e.set("setup_s", median(setupSecs), "s")
	e2e.set("peak_rss_mb", rss, "MB")
	if e2e.err != nil {
		return result{}, e2e.err
	}
	if err := sameNames(e2e.names, endToEndNames); err != nil {
		return result{}, err
	}

	metrics := e2e
	if traced {
		layers, err := perLayer(w, sv, recs, runs, prompts, reqs, ecfg)
		phase("layers replayed")
		detail := "all replays ran"
		if err != nil {
			detail, layers = err.Error(), newMetricSet()
		}
		if layers.err != nil {
			return result{}, layers.err
		}
		checks.add("per-layer replay ran and every protection hook fired on every linear layer", err == nil, detail)
		if err := emitJSON(stdout, "traced_end_to_end", e2e.values); err != nil {
			return result{}, err
		}
		metrics = layers
	}
	prov["setup_s_each"] = setupSecs
	samples["trials_per_s_by_run"] = rates
	if err := emitJSON(stdout, "samples", samples); err != nil {
		return result{}, err
	}
	if err := emitJSON(stdout, "provenance", prov); err != nil {
		return result{}, err
	}
	if err := emitJSON(stdout, "checks", checks.entries); err != nil {
		return result{}, err
	}
	for _, n := range metrics.names {
		out.Metrics[n] = metrics.values[n]
	}
	out.Correct = checks.ok() && out.Failed == 0
	return out, nil
}

// checkLog records the run's correctness checks.
type checkLog struct{ entries []checkEntry }

type checkEntry struct {
	Check  string `json:"check"`
	Passed bool   `json:"passed"`
	Detail string `json:"detail"`
}

func (c *checkLog) add(check string, passed bool, detail string) {
	c.entries = append(c.entries, checkEntry{check, passed, detail})
}

func (c *checkLog) ok() bool {
	for _, e := range c.entries {
		if !e.Passed {
			return false
		}
	}
	return true
}

// emitJSON writes {"key": v} as one line.
func emitJSON(w io.Writer, key string, v any) error {
	b, err := json.Marshal(map[string]any{key: v})
	if err != nil {
		return fmt.Errorf("encoding %s: %w", key, err)
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
