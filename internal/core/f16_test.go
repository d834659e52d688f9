package core

import (
	"testing"

	"ft2/internal/fault"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/tensor"
)

// f16ProtectedTokens builds a fresh model with packed-f16 weights and an FT2
// controller, optionally registers a fault injector, and generates with the
// given streaming mode.
func f16ProtectedTokens(t *testing.T, name string, stream bool, inject bool) []int {
	t.Helper()
	prev := tensor.SetF16Streaming(stream)
	defer tensor.SetF16Streaming(prev)

	cfg, err := model.ConfigByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m := model.MustNew(cfg, 42, numerics.FP16)
	m.EnableF16Weights()
	f := New(m, Defaults())
	if inject {
		inj := fault.NewInjector(fault.Site{
			Step:  3,
			Layer: model.LayerRef{Block: 1, Kind: model.FC1},
			Elem:  7,
			Bits:  []int{14}, // exponent bit in FP16: a magnitude fault FT2 clips
		}, numerics.FP16)
		m.RegisterHook(inj.Hook()) // runs before FT2's call-scoped hook
	}
	return f.Generate([]int{4, 9, 14, 19, 24}, 12)
}

// FT2-protected decode must be bit-identical between f16-streamed and f32
// weight reads — bounds capture, clipping decisions, and the first-token
// NaN correction all observe the same activations either way — both
// fault-free and with an armed injector.
func TestF16StreamedProtectedDecodeBitIdentical(t *testing.T) {
	for _, name := range []string{"opt-2.7b-sim", "gptj-6b-sim", "llama2-7b-sim"} {
		t.Run(name, func(t *testing.T) {
			for _, inject := range []bool{false, true} {
				f32 := f16ProtectedTokens(t, name, false, inject)
				f16 := f16ProtectedTokens(t, name, true, inject)
				for i := range f32 {
					if f32[i] != f16[i] {
						t.Fatalf("inject=%v token %d: f32 %v vs f16-streamed %v", inject, i, f32, f16)
					}
				}
			}
		})
	}
}
