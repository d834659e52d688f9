// Root benchmark harness: one testing.B benchmark per paper table/figure,
// running its experiment driver at the Quick parameter set and reporting
// headline metrics (SDC rates, overheads) as custom benchmark outputs.
// The full-size regeneration is `go run ./cmd/ft2bench -exp all`.
package ft2_test

import (
	"context"
	"strconv"
	"testing"

	"ft2"
	"ft2/internal/experiments"
)

// runDriver executes one experiment driver b.N times (the driver itself is
// the unit of work; N is usually 1 for these macro-benchmarks).
func runDriver(b *testing.B, id string) {
	b.Helper()
	d, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	p := experiments.Quick()
	for i := 0; i < b.N; i++ {
		tb, err := d.Run(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
		// Report the last numeric column of the first and last rows as
		// headline metrics when present.
		if v, err := strconv.ParseFloat(firstNumeric(tb.Rows[0]), 64); err == nil {
			b.ReportMetric(v, "row0_metric")
		}
	}
}

func firstNumeric(row []string) string {
	for _, c := range row[1:] {
		if _, err := strconv.ParseFloat(c, 64); err == nil {
			return c
		}
	}
	return ""
}

func BenchmarkTable1(b *testing.B) { runDriver(b, "table1") }
func BenchmarkTable2(b *testing.B) { runDriver(b, "table2") }
func BenchmarkFig2(b *testing.B)   { runDriver(b, "fig2") }
func BenchmarkFig3(b *testing.B)   { runDriver(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { runDriver(b, "fig4") }
func BenchmarkFig6(b *testing.B)   { runDriver(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { runDriver(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { runDriver(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { runDriver(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { runDriver(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { runDriver(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { runDriver(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { runDriver(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { runDriver(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { runDriver(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { runDriver(b, "fig16") }

func BenchmarkAblationClipMode(b *testing.B) { runDriver(b, "ablation-clip") }
func BenchmarkExtensionDMR(b *testing.B)     { runDriver(b, "ext-dmr") }
func BenchmarkAblationCoverage(b *testing.B) { runDriver(b, "ablation-coverage") }

// Micro-benchmarks of the protection itself: protected vs unprotected
// generation (the measured quantity behind Fig. 14).
func BenchmarkGenerateUnprotected(b *testing.B) {
	cfg, err := ft2.ModelByName("llama2-7b-sim")
	if err != nil {
		b.Fatal(err)
	}
	m, err := ft2.NewModel(cfg, 42, ft2.FP16)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := ft2.LoadDataset("squad-sim", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Generate(ds.Inputs[0].Prompt, ds.GenTokens)
	}
	b.ReportMetric(float64(b.N*ds.GenTokens)/b.Elapsed().Seconds(), "tokens/s")
}

// BenchmarkCampaignTrial measures end-to-end campaign throughput with
// golden-checkpoint forking on (the default) and off, on the llama2 family
// at the paper's 60-token generation length. The trials/s ratio between the
// two sub-benchmarks is the forking speedup reported in BENCH_decode.json.
func BenchmarkCampaignTrial(b *testing.B) {
	cfg, err := ft2.ModelByName("llama2-7b-sim")
	if err != nil {
		b.Fatal(err)
	}
	ds, err := ft2.LoadDataset("squad-sim", 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		noFork bool
	}{{"fork", false}, {"no-fork", true}} {
		b.Run(bc.name, func(b *testing.B) {
			spec := ft2.CampaignSpec{
				ModelCfg: cfg, ModelSeed: 42, DType: ft2.FP16,
				Fault: ft2.ExponentBit, Method: ft2.MethodFT2,
				FT2Opts: ft2.DefaultOptions(), Dataset: ds,
				Trials: 24, BaseSeed: 7, NoFork: bc.noFork,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ft2.RunCampaign(spec)
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed != spec.Trials {
					b.Fatalf("completed %d/%d trials", res.Completed, spec.Trials)
				}
			}
			b.ReportMetric(float64(b.N*spec.Trials)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

func BenchmarkGenerateFT2(b *testing.B) {
	cfg, err := ft2.ModelByName("llama2-7b-sim")
	if err != nil {
		b.Fatal(err)
	}
	m, err := ft2.NewModel(cfg, 42, ft2.FP16)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := ft2.LoadDataset("squad-sim", 1)
	if err != nil {
		b.Fatal(err)
	}
	p := ft2.Protect(m, ft2.DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Generate(ds.Inputs[0].Prompt, ds.GenTokens)
	}
	b.ReportMetric(float64(b.N*ds.GenTokens)/b.Elapsed().Seconds(), "tokens/s")
}
