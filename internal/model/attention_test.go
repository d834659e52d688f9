package model

import (
	"testing"

	"ft2/internal/numerics"
	"ft2/internal/tensor"
)

// Causality: the first generated token must depend only on the prompt, so
// two prompts that share a prefix and differ afterwards produce identical
// activations for the shared positions. We verify via hooks on the prefill
// pass of the shorter prompt vs the longer one.
func TestCausalMaskProperty(t *testing.T) {
	for _, f := range []Family{FamilyOPT, FamilyGPTJ, FamilyLlama} {
		cfg := smallCfg(f)
		m := MustNew(cfg, 13, numerics.FP16)

		capture := func(prompt []int) map[LayerRef][]float32 {
			out := make(map[LayerRef][]float32)
			m.Generate(prompt, 1, func(ctx HookCtx, tens *tensor.Tensor) {
				if ctx.Step != 0 || ctx.Site != SiteLinearOut {
					return
				}
				// Keep the first row (position 0) of every layer output.
				out[ctx.Layer] = append([]float32(nil), tens.Row(0)...)
			})
			return out
		}

		a := capture([]int{5, 9, 13, 17})
		b := capture([]int{5, 60, 61, 62}) // same first token, different tail

		for ref, rowA := range a {
			rowB := b[ref]
			for i := range rowA {
				if rowA[i] != rowB[i] {
					t.Fatalf("%v/%v: position 0 activations depend on future tokens", f, ref)
				}
			}
		}
	}
}

// The attention output must be a convex combination of V rows: with all V
// values bounded by M, no attention output can exceed M. This is the
// mechanism that keeps K/Q faults non-critical (scores only reweight).
func TestAttentionOutputBoundedByV(t *testing.T) {
	cfg := smallCfg(FamilyOPT)
	m := MustNew(cfg, 3, numerics.FP16)

	var vMax, attnInMax float32
	m.RegisterHook(func(ctx HookCtx, out *tensor.Tensor) {
		if ctx.Site != SiteLinearOut {
			return
		}
		switch ctx.Layer.Kind {
		case VProj:
			_, hi := out.MinMax()
			lo, _ := out.MinMax()
			if hi > vMax {
				vMax = hi
			}
			if -lo > vMax {
				vMax = -lo
			}
		case OutProj:
			// ctx.Input is the attention context (pre-out_proj).
			lo, hi := ctx.Input.MinMax()
			if hi > attnInMax {
				attnInMax = hi
			}
			if -lo > attnInMax {
				attnInMax = -lo
			}
		}
	})
	m.Generate([]int{4, 5, 6, 7, 8}, 6)
	m.ClearHooks()
	if attnInMax > vMax*1.01 {
		t.Errorf("attention context max %g exceeds V max %g (not a convex combination?)", attnInMax, vMax)
	}
}

// A huge K value saturates the softmax but cannot blow up the attention
// output — the scaling/softmax damping behind the K/Q non-criticality.
func TestKFaultDampedBySoftmax(t *testing.T) {
	cfg := smallCfg(FamilyOPT)
	m := MustNew(cfg, 3, numerics.FP16)

	var ctxMax float32
	m.RegisterHook(func(ctx HookCtx, out *tensor.Tensor) {
		if ctx.Site != SiteLinearOut {
			return
		}
		if ctx.Layer == (LayerRef{0, KProj}) && ctx.Step == 0 {
			out.Data[0] = 48000 // huge K value
		}
		if ctx.Layer == (LayerRef{0, OutProj}) && ctx.Step == 0 {
			lo, hi := ctx.Input.MinMax()
			if -lo > hi {
				hi = -lo
			}
			ctxMax = hi
		}
	})
	m.Generate([]int{4, 5, 6, 7}, 1)
	m.ClearHooks()
	// The attention context must stay at the scale of legit V values (no
	// 48000-magnitude blow-up).
	if ctxMax > 100 {
		t.Errorf("huge K value leaked into the attention output: ctx max %g", ctxMax)
	}
}

// GPT-J's parallel block must differ from OPT's sequential block given the
// same dims: the architectures are genuinely distinct.
func TestGPTJParallelPathDiffersFromOPT(t *testing.T) {
	opt := MustNew(smallCfg(FamilyOPT), 21, numerics.FP16)
	gptj := MustNew(smallCfg(FamilyGPTJ), 21, numerics.FP16)
	a := opt.Generate([]int{4, 5, 6}, 8)
	b := gptj.Generate([]int{4, 5, 6}, 8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Error("OPT and GPT-J generations identical — parallel path suspect")
	}
}
