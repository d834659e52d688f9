package model

import (
	"testing"

	"ft2/internal/numerics"
)

// BenchmarkDecodeStep measures one steady-state decode step — the unit the
// paper's runtime overhead numbers are normalized to — on each family's
// Table 2 sim config. The prompt is prefilled once and checkpointed; every
// iteration restores that checkpoint (a few KiB of KV copy) and runs one
// DecodeStep, so each step attends over the same 7 positions.
func BenchmarkDecodeStep(b *testing.B) {
	for _, name := range []string{"opt-6.7b-sim", "gptj-6b-sim", "llama2-7b-sim"} {
		b.Run(name, func(b *testing.B) {
			cfg, err := ConfigByName(name)
			if err != nil {
				b.Fatal(err)
			}
			m := MustNew(cfg, 42, numerics.FP16)
			m.Prefill([]int{4, 8, 15, 16, 23, 42})
			var snap Snapshot
			m.Checkpoint(&snap)

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.DecodeStep(m.Restore(&snap))
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tokens/s")
		})
	}
}
