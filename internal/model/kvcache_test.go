package model

import (
	"testing"

	"ft2/internal/numerics"
)

// TestKVCacheEquivalenceBitwise pins the incremental KV cache to the
// from-scratch reference: for every family, after every decode step the
// engine's token, stream norm and KV slabs must be bit-identical to a
// reference prefill of the whole sequence so far (prompt plus the tokens
// generated before the step), which reuses no cache at all. Any divergence
// means the slab layout or the incremental attention walk is wrong.
func TestKVCacheEquivalenceBitwise(t *testing.T) {
	const genTokens = 12
	for _, f := range []Family{FamilyOPT, FamilyGPTJ, FamilyLlama} {
		t.Run(f.String(), func(t *testing.T) {
			m := MustNew(smallCfg(f), 7, numerics.FP16)
			ref := NewReference(m)
			seq := []int{3, 14, 15, 9, 2, 6}

			tok := m.Prefill(seq)
			for s := 0; s < genTokens; s++ {
				if s > 0 {
					tok = m.DecodeStep(seq[len(seq)-1])
				}
				rs := ref.Begin(len(seq))
				want := ref.Chunk(rs, seq)
				if tok != want {
					t.Fatalf("step %d: cached token %d != fresh token %d", s, tok, want)
				}
				if got := m.State().lastStreamNorm; got != rs.streamNorm {
					t.Fatalf("step %d: cached stream norm %g != fresh %g", s, got, rs.streamNorm)
				}
				if err := rs.MatchKV(m.State()); err != nil {
					t.Fatalf("step %d: %v", s, err)
				}
				seq = append(seq, tok)
			}
		})
	}
}

// TestGenerateAllocFree asserts the decode hot path's core guarantee: after
// construction and a warm-up generation, further generations perform (almost)
// no heap allocation — only the returned token slice.
func TestGenerateAllocFree(t *testing.T) {
	cfg := smallCfg(FamilyLlama)
	m := MustNew(cfg, 3, numerics.FP16)
	prompt := []int{1, 2, 3, 4}
	m.Generate(prompt, 8) // warm up: lazily built scratch, rope table, KV slabs

	avg := testing.AllocsPerRun(10, func() {
		m.Generate(prompt, 8)
	})
	// One allocation: the out []int result slice.
	if avg > 1 {
		t.Fatalf("Generate allocates %.1f objects/run after warm-up, want <= 1", avg)
	}
}
