package model

import "ft2/internal/tensor"

// arena holds the per-model scratch buffers the forward pass reuses across
// steps, so a decode step performs zero heap allocations. Every buffer is
// sized at construction for the worst case (a MaxSeq-row prefill pass) and
// resliced per pass via Tensor.Reuse.
//
// Ownership: the arena belongs to exactly one Model, and a Model is
// documented single-goroutine (campaigns clone one model per worker), so no
// synchronization is needed. Tensors handed to forward hooks alias these
// buffers — they are valid only for the duration of the hook call, and
// hooks that want to keep activations must copy them (every in-tree hook
// already does).
type arena struct {
	x       *tensor.Tensor // residual stream, rows × hidden
	normed  *tensor.Tensor // ln1 output
	normed2 *tensor.Tensor // ln2 output
	q, k, v *tensor.Tensor // attention projections, rows × hidden
	ctx     *tensor.Tensor // pre-out_proj attention context
	attn    *tensor.Tensor // out_proj output
	ffnA    *tensor.Tensor // fc1 / gate_proj output, rows × ffn
	ffnB    *tensor.Tensor // up_proj output, rows × ffn
	ffnOut  *tensor.Tensor // fc2 / down_proj output, rows × hidden

	// Readout buffers, one row per item emitting a token this call.
	emitRows   *tensor.Tensor // final-row residual copies, E × hidden
	emitNorm   *tensor.Tensor // final-norm output, E × hidden
	emitLogits *tensor.Tensor // logits, E × vocab

	// rowOut/rowIn are reusable tensor headers whose Data is re-aimed at
	// one item's row range at a time when per-session hooks run; see
	// runBatchHooks.
	rowOut *tensor.Tensor
	rowIn  *tensor.Tensor

	// one and oneTok are the item and result slots of the single-session
	// calls (Prefill, PrefillChunk, DecodeStep), kept here so that a
	// one-item forward allocates nothing.
	one    [1]BatchItem
	oneTok [1]int
	// callHooks holds the registered plus call-scoped hooks of a
	// GenerateInto with hooks, reused across calls.
	callHooks []Hook

	// Fused mixed-phase batch layout (ForwardBatch): per-item first fused
	// row, row count, absolute start position, pre-append KV row count for
	// the current block, and the indices of items emitting a token this
	// call. Reused across calls.
	itemLo   []int
	itemRows []int
	itemPos  []int
	itemBase []int
	emitIdx  []int

	// Parallel-attention fan-out state: the per-(item × head) scores
	// scratch slab (maxSeq floats per unit, grown on demand), the operands
	// the unit body reads, and the persistent closure handed to
	// tensor.ParallelFor so steady-state fan-out allocates nothing.
	attnScores []float32
	attnItems  []BatchItem
	attnQ      *tensor.Tensor
	attnCtx    *tensor.Tensor
	attnBlk    int
	attnFn     func(lo, hi int)
}

func newArena(cfg Config) *arena {
	s, h, f := cfg.MaxSeq, cfg.Hidden, cfg.FFN
	return &arena{
		x:          tensor.New(s, h),
		normed:     tensor.New(s, h),
		normed2:    tensor.New(s, h),
		q:          tensor.New(s, h),
		k:          tensor.New(s, h),
		v:          tensor.New(s, h),
		ctx:        tensor.New(s, h),
		attn:       tensor.New(s, h),
		ffnA:       tensor.New(s, f),
		ffnB:       tensor.New(s, f),
		ffnOut:     tensor.New(s, h),
		emitRows:   tensor.New(1, h),
		emitNorm:   tensor.New(1, h),
		emitLogits: tensor.New(1, cfg.Vocab),
		rowOut:     tensor.New(0, 0),
		rowIn:      tensor.New(0, 0),
	}
}
