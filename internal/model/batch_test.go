package model

import (
	"reflect"
	"testing"

	"ft2/internal/numerics"
	"ft2/internal/tensor"
)

// prefillSession starts a fresh session on m (its own DecodeState) and
// returns the item primed with the prefill token.
func prefillSession(m *Model, prompt []int) (BatchItem, int) {
	st := m.NewDecodeState()
	prev := m.SwapState(st)
	tok := m.Prefill(prompt)
	m.SwapState(prev)
	return BatchItem{State: st, Tok: tok}, tok
}

// TestDecodeStepBatchBitwise pins the fused batched decode to the reference
// forward: for every family, sessions with different prompt lengths
// advanced together through one ForwardBatch per step must emit exactly
// the reference's token sequences and hold its KV bits.
func TestDecodeStepBatchBitwise(t *testing.T) {
	const gen = 10
	prompts := [][]int{
		{5, 9, 13},
		{7},
		{4, 6, 8, 10, 12, 14, 16},
		{20, 21},
	}
	for _, f := range []Family{FamilyOPT, FamilyGPTJ, FamilyLlama} {
		t.Run(f.String(), func(t *testing.T) {
			cfg := smallCfg(f)
			m := MustNew(cfg, 11, numerics.FP16)
			ref := NewReference(m)

			want := make([][]int, len(prompts))
			refs := make([]*RefSession, len(prompts))
			for i, p := range prompts {
				want[i], refs[i] = ref.Generate(p, gen)
			}

			items := make([]BatchItem, len(prompts))
			got := make([][]int, len(prompts))
			for i, p := range prompts {
				it, tok := prefillSession(m, p)
				items[i] = it
				got[i] = append(got[i], tok)
			}
			var toks []int
			for s := 1; s < gen; s++ {
				toks = m.ForwardBatch(items, toks[:0])
				for i, tok := range toks {
					got[i] = append(got[i], tok)
					items[i].Tok = tok
				}
			}
			for i := range prompts {
				if !reflect.DeepEqual(want[i], got[i]) {
					t.Errorf("session %d (prompt len %d): batched %v != reference %v",
						i, len(prompts[i]), got[i], want[i])
				}
				if err := refs[i].Match(items[i].State); err != nil {
					t.Errorf("session %d: %v", i, err)
				}
			}
		})
	}
}

// TestDecodeStepBatchSingleItem pins the degenerate B=1 batch — the shape
// every DecodeStep runs — to the reference, state evolution included
// (SeqLen, LastToken, stream norm, KV).
func TestDecodeStepBatchSingleItem(t *testing.T) {
	cfg := smallCfg(FamilyLlama)
	m := MustNew(cfg, 3, numerics.FP16)
	prompt := []int{9, 4, 31}

	ref := NewReference(m)
	rs := ref.Begin(len(prompt))
	want := ref.Chunk(rs, prompt)
	it, tok := prefillSession(m, prompt)
	if tok != want {
		t.Fatalf("prefill: %d != reference %d", tok, want)
	}
	var toks []int
	for s := 1; s < 8; s++ {
		want = ref.Decode(rs, want)
		it.Tok = tok
		toks = m.ForwardBatch([]BatchItem{it}, toks[:0])
		tok = toks[0]
		if tok != want {
			t.Fatalf("step %d: batched %d != reference %d", s, tok, want)
		}
		if got := it.State.SeqLen(); got != len(prompt)+s {
			t.Fatalf("step %d: SeqLen %d", s, got)
		}
		if got := it.State.LastToken(); got != want {
			t.Fatalf("step %d: LastToken %d != %d", s, got, want)
		}
		if err := rs.Match(it.State); err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
	}
}

// TestDecodeStepBatchRowHooks checks per-session hook attribution: a hook
// attached to one batch item observes one-row tensors with that session's
// step counter, its mutations corrupt only that session's continuation, and
// hook-free co-batched sessions still match the reference bitwise.
func TestDecodeStepBatchRowHooks(t *testing.T) {
	const gen = 8
	cfg := smallCfg(FamilyGPTJ)
	m := MustNew(cfg, 5, numerics.FP16)
	prompts := [][]int{{6, 7, 8}, {12, 13, 14, 15}}

	clean, _ := NewReference(m).Generate(prompts[1], gen)

	items := make([]BatchItem, 2)
	for i, p := range prompts {
		items[i], _ = prefillSession(m, p)
	}
	var sawRows, sawSteps []int
	items[0].Hooks = []Hook{func(ctx HookCtx, out *tensor.Tensor) {
		sawRows = append(sawRows, out.Rows)
		if ctx.Layer.Kind == FC1 && ctx.Site == SiteLinearOut {
			sawSteps = append(sawSteps, ctx.Step)
			out.Data[0] = 40 // corrupt session 0 only
		}
	}}

	got := [][]int{{items[0].Tok}, {items[1].Tok}}
	var toks []int
	for s := 1; s < gen; s++ {
		toks = m.ForwardBatch(items, toks[:0])
		for i, tok := range toks {
			got[i] = append(got[i], tok)
			items[i].Tok = tok
		}
	}
	if !reflect.DeepEqual(got[1], clean) {
		t.Errorf("hook-free session diverged from the reference: %v != %v", got[1], clean)
	}
	for _, r := range sawRows {
		if r != 1 {
			t.Fatalf("hook saw %d-row tensor; want per-session 1-row views", r)
		}
	}
	for i, s := range sawSteps {
		// FC1 fires once per block per step; steps advance 1..gen-1.
		if want := 1 + i/cfg.Blocks; s != want {
			t.Fatalf("hook step %d: got %d want %d", i, s, want)
		}
	}
	if len(sawSteps) != (gen-1)*cfg.Blocks {
		t.Fatalf("hook fired %d times; want %d", len(sawSteps), (gen-1)*cfg.Blocks)
	}
}

// TestDecodeStepBatchModelHooksPanic pins the guard: model-level hooks
// cannot be attributed to a session, so ForwardBatch must refuse them.
func TestDecodeStepBatchModelHooksPanic(t *testing.T) {
	cfg := smallCfg(FamilyOPT)
	m := MustNew(cfg, 2, numerics.FP16)
	it, _ := prefillSession(m, []int{5, 6})
	m.RegisterHook(func(HookCtx, *tensor.Tensor) {})
	defer func() {
		if recover() == nil {
			t.Fatal("ForwardBatch with model-level hooks did not panic")
		}
	}()
	m.ForwardBatch([]BatchItem{it}, nil)
}
