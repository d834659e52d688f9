package experiments

import (
	"context"
	"time"

	"ft2/internal/core"
	"ft2/internal/data"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/perfmodel"
	"ft2/internal/report"
)

// perfWorkloads returns the (model, dataset) reference workloads used by
// the perfmodel-driven figures.
func perfWorkloads() []struct {
	Model   model.Config
	Dataset *data.Dataset
} {
	var out []struct {
		Model   model.Config
		Dataset *data.Dataset
	}
	for _, pair := range modelDatasetPairs() {
		cfg, err := model.ConfigByName(pair[0])
		if err != nil {
			panic(err) // zoo names are static
		}
		ds, err := data.ByName(pair[1], 1)
		if err != nil {
			panic(err)
		}
		out = append(out, struct {
			Model   model.Config
			Dataset *data.Dataset
		}{cfg, ds})
	}
	return out
}

// Fig4 reports the offline bound-profiling cost per task on both GPUs
// (log-scale hours in the paper).
func Fig4() *report.Table {
	t := report.NewTable("Figure 4: offline bound-profiling time (hours; 20% of training set / full validation set)",
		"Model", "Dataset", "Profiling inputs", "A100 (h)", "H100 (h)")
	for _, wl := range perfWorkloads() {
		w := perfmodel.Workload{
			Params: wl.Model.RefParams, PromptTokens: wl.Dataset.RefPromptTokens,
			GenTokens: wl.Dataset.GenTokens, DType: numerics.FP16,
		}
		t.AddRow(wl.Model.Name, wl.Dataset.Name, wl.Dataset.RefProfilingInputs,
			perfmodel.ProfilingHours(perfmodel.A100, w, wl.Dataset.RefProfilingInputs),
			perfmodel.ProfilingHours(perfmodel.H100, w, wl.Dataset.RefProfilingInputs))
	}
	return t
}

// Fig10 reports the first-token generation's share of total inference time.
func Fig10() *report.Table {
	t := report.NewTable("Figure 10: first-token generation as % of inference time",
		"Model", "Dataset", "GPU", "First token %", "Inference (s)")
	for _, wl := range perfWorkloads() {
		w := perfmodel.Workload{
			Params: wl.Model.RefParams, PromptTokens: wl.Dataset.RefPromptTokens,
			GenTokens: wl.Dataset.GenTokens, DType: numerics.FP16,
		}
		for _, g := range perfmodel.GPUs {
			t.AddRow(wl.Model.Name, wl.Dataset.Name, g.Name,
				perfmodel.FirstTokenFraction(g, w)*100,
				perfmodel.InferenceTime(g, w).Seconds())
		}
	}
	return t
}

// Fig14 measures the wall-clock overhead of FT2 on the Go engine itself:
// generation with and without the FT2 hook attached, repeated, plus the
// bounds-store memory footprint (the paper's 288–512 B).
func Fig14(ctx context.Context, p Params) (*report.Table, error) {
	t := report.NewTable("Figure 14: measured FT2 time overhead on the Go engine",
		"Model", "Baseline ms/gen", "FT2 ms/gen", "Overhead %", "Protected layers", "Bounds bytes (fp16)")
	reps := p.Trials / 10
	if reps < 3 {
		reps = 3
	}
	for _, cfg := range model.Zoo() {
		if err := ctx.Err(); err != nil {
			return partialOnCancel(t, err)
		}
		ds := data.SquadSim(1)
		prompt := ds.Inputs[0].Prompt
		m, err := model.New(cfg, p.Seed, numerics.FP16)
		if err != nil {
			return nil, err
		}
		// Warm up once, then time.
		m.Generate(prompt, ds.GenTokens)
		start := time.Now()
		for i := 0; i < reps; i++ {
			m.Generate(prompt, ds.GenTokens)
		}
		base := time.Since(start)

		f := core.New(m, core.Defaults())
		f.Generate(prompt, ds.GenTokens)
		start = time.Now()
		for i := 0; i < reps; i++ {
			f.Generate(prompt, ds.GenTokens)
		}
		prot := time.Since(start)
		layers := f.ProtectedSiteCount()
		bytes := f.Bounds().MemoryBytes(numerics.FP16)

		overhead := (prot.Seconds() - base.Seconds()) / base.Seconds() * 100
		t.AddRow(cfg.Name,
			base.Seconds()*1000/float64(reps),
			prot.Seconds()*1000/float64(reps),
			overhead, layers, bytes)
	}
	return t, nil
}
