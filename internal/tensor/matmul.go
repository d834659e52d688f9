package tensor

import "runtime"

// grainWork is the minimum number of multiply-adds a parallel chunk should
// carry; finer chunks spend more time on cursor traffic than arithmetic.
const grainWork = 1 << 13

// MatMul returns a × b (a: m×k, b: k×n). The cost-model dispatcher
// (dispatch.go) picks serial, row-split, or column-split per shape; the
// per-element FP op order is identical on every path.
func MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic("tensor: MatMul shape mismatch")
	}
	out := New(a.Rows, b.Cols)
	matMulInto(out, a, b)
	return out
}

func matMulInto(out, a, b *Tensor) {
	m, k, n := a.Rows, a.Cols, b.Cols
	// The zero-skipping fast path in matMulRows is only sound when b is
	// fully finite: 0 × NaN and 0 × ±Inf are NaN and must propagate, or a
	// sparse activation row would silently mask an injected fault. The scan
	// result is cached on b (weights never change after load).
	skipZeros := b.AllFinite()
	defer out.MarkMutated()
	p := currentCostModel().plan(kindMatMul, m, k, n, runtime.GOMAXPROCS(0))
	switch p.mode {
	case planRows:
		runPooled(kernelMatMulRows, out, a, b, skipZeros, m, p.chunk, p.helpers)
	case planCols:
		// Few rows, wide product: split the output columns so a small-m
		// product still uses every core. out must be zeroed before the
		// accumulating column kernel runs; New and the serial/row paths
		// overwrite, so only this path clears it here.
		out.Zero()
		runPooled(kernelMatMulCols, out, a, b, skipZeros, n, p.chunk, p.helpers)
	default:
		matMulRows(out, a, b, 0, m, skipZeros)
	}
}

// matMulRows computes rows [lo,hi) of out = a×b with a k-outer loop that
// streams b row-wise (cache friendly for row-major storage). skipZeros
// enables the sparse shortcut for zero elements of a; callers must disable
// it when b contains non-finite values so that 0 × NaN propagates.
func matMulRows(out, a, b *Tensor, lo, hi int, skipZeros bool) {
	k, n := a.Cols, b.Cols
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 && skipZeros {
				continue
			}
			brow := b.Data[kk*n : (kk+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// matMulCols computes columns [lo,hi) of every row of out = a×b. The
// accumulation per element runs in the same kk-ascending order as
// matMulRows, so splitting by columns is bit-identical to the serial loop.
// out must be zeroed over [lo,hi) before the call.
func matMulCols(out, a, b *Tensor, lo, hi int, skipZeros bool) {
	m, k, n := a.Rows, a.Cols, b.Cols
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 && skipZeros {
				continue
			}
			brow := b.Data[kk*n : (kk+1)*n]
			for j := lo; j < hi; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
}

// allFinite reports whether every element is finite (no NaN, no ±Inf).
func allFinite(xs []float32) bool {
	for _, v := range xs {
		if v-v != 0 { // NaN-NaN and Inf-Inf are NaN; finite-finite is 0
			return false
		}
	}
	return true
}

// MatMulT returns a × bᵀ (a: m×k, b: n×k). Used for attention scores
// (Q × Kᵀ) and every linear layer (weights stored out×in).
func MatMulT(a, b *Tensor) *Tensor {
	return MatMulTInto(New(a.Rows, b.Rows), a, b)
}

// MatMulTInto computes a × bᵀ into out (a: m×k, b: n×k, out: m×n),
// overwriting every element of out. It allocates nothing, which keeps the
// per-token decode step off the garbage collector; out must not alias a
// or b. Every out element is an independent dotRow(a-row, b-row), so the
// serial, row-split, column-split, 4-row-blocked, and f16-streamed paths
// are bit-identical at any worker count.
func MatMulTInto(out, a, b *Tensor) *Tensor {
	if a.Cols != b.Cols {
		panic("tensor: MatMulT shape mismatch")
	}
	m, k, n := a.Rows, a.Cols, b.Rows
	if out.Rows != m || out.Cols != n {
		panic("tensor: MatMulTInto output shape mismatch")
	}
	p := currentCostModel().plan(kindMatMulT, m, k, n, runtime.GOMAXPROCS(0))
	switch p.mode {
	case planRows:
		runPooled(kernelMatMulTRows, out, a, b, false, m, p.chunk, p.helpers)
	case planCols:
		runPooled(kernelMatMulTCols, out, a, b, false, n, p.chunk, p.helpers)
	default:
		// The decode hot path (m = 1 or a small batch on a host without
		// spare cores) lands here every step, free of pool traffic.
		matMulTRows(out, a, b, 0, m)
	}
	out.MarkMutated()
	return out
}

// matMulTRows computes rows [lo,hi) of out = a×bᵀ, blocked: rows are taken
// in groups of four so each weight row of b is streamed once per group
// instead of once per output row, through the 4-row microkernel when the
// FMA tier is present. When b carries a streamable packed-f16 shadow the
// F16C variants read half the bytes; op order per element is identical
// either way, so blocking and streaming mode are invisible in the results.
func matMulTRows(out, a, b *Tensor, lo, hi int) {
	k, n := a.Cols, b.Rows
	bh := b.halfData()
	i := lo
	if bh == nil && hi-lo >= 8 && matMulTTiled(out, a, b, lo, hi) {
		return
	}
	if hasFMA && k > 0 {
		for ; i+4 <= hi; i += 4 {
			ablk := a.Data[i*k : (i+3)*k+k]
			o0 := out.Data[i*n : (i+1)*n]
			o1 := out.Data[(i+1)*n : (i+2)*n]
			o2 := out.Data[(i+2)*n : (i+3)*n]
			o3 := out.Data[(i+3)*n : (i+4)*n]
			if bh != nil {
				for j := 0; j < n; j++ {
					o0[j], o1[j], o2[j], o3[j] = dotRow4F16(ablk, k, bh[j*k:(j+1)*k])
				}
			} else if !matMulTSweep4(out.Data[i*n:(i+4)*n], n, ablk, k, b.Data, k, n) {
				for j := 0; j < n; j++ {
					o0[j], o1[j], o2[j], o3[j] = dotRow4(ablk, k, b.Data[j*k:(j+1)*k])
				}
			}
		}
	}
	for ; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		if bh != nil {
			for j := 0; j < n; j++ {
				orow[j] = dotRowF16(arow, bh[j*k:(j+1)*k])
			}
		} else if !matMulTSweep1(orow, arow, b.Data[:n*k], k, n) {
			for j := 0; j < n; j++ {
				orow[j] = dotRow(arow, b.Data[j*k:(j+1)*k])
			}
		}
	}
}

// matMulTTiled is matMulTRows with the columns of b tiled so one weight
// block is streamed from the outer cache once and then reused from L1 by
// every 4-row group — the shape the fused mixed-phase batch produces
// (many activation rows against one weight matrix). Each output element is
// still an independent dotRow of the same two vectors, so tiling changes
// only the traversal order, never a result bit. Returns false when the FMA
// sweep kernels are unavailable (the caller runs the untiled loops).
func matMulTTiled(out, a, b *Tensor, lo, hi int) bool {
	k, n := a.Cols, b.Rows
	if k == 0 || n == 0 {
		return false
	}
	// 32 columns × k floats ≤ ~12-16 KiB for the zoo's widths: comfortably
	// inside L1 with the activation rows.
	const colBlock = 32
	for j0 := 0; j0 < n; j0 += colBlock {
		jn := n - j0
		if jn > colBlock {
			jn = colBlock
		}
		blk := b.Data[j0*k : (j0+jn)*k]
		i := lo
		for ; i+4 <= hi; i += 4 {
			if !matMulTSweep4(out.Data[i*n+j0:], n, a.Data[i*k:(i+4)*k], k, blk, k, jn) {
				return false
			}
		}
		for ; i < hi; i++ {
			if !matMulTSweep1(out.Data[i*n+j0:i*n+j0+jn], a.Data[i*k:(i+1)*k], blk, k, jn) {
				return false
			}
		}
	}
	return true
}

// matMulTCols computes columns [lo,hi) of every row of out = a×bᵀ — the
// small-m split that lets a single decode step use every core. Each element
// is the same dotRow the row kernel makes, so results are bit-identical.
func matMulTCols(out, a, b *Tensor, lo, hi int) {
	k, n := a.Cols, b.Rows
	bh := b.halfData()
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		if bh != nil {
			for j := lo; j < hi; j++ {
				orow[j] = dotRowF16(arow, bh[j*k:(j+1)*k])
			}
		} else if !matMulTSweep1(orow[lo:hi], arow, b.Data[lo*k:hi*k], k, hi-lo) {
			for j := lo; j < hi; j++ {
				orow[j] = dotRow(arow, b.Data[j*k:(j+1)*k])
			}
		}
	}
}

// DotRow is the per-element kernel of MatMulTInto and LinearInto: element
// (i, j) of a × bᵀ is DotRow(a.Row(i), b.Row(j)) bit-for-bit on every path
// (serial, row- or column-split, 4-row blocked, tiled, f16-streamed). It
// runs the FMA tier where the host has one, so it may differ from Dot in
// the last bits; a reference that rebuilds a layer one element at a time
// uses DotRow to stay comparable bitwise.
func DotRow(a, b []float32) float32 { return dotRow(a, b) }

// Linear computes x × wᵀ + bias, the canonical nn.Linear forward pass
// (w: out×in stored row-major like PyTorch, bias: len out or nil).
func Linear(x, w *Tensor, bias []float32) *Tensor {
	return LinearInto(New(x.Rows, w.Rows), x, w, bias)
}

// LinearInto computes x × wᵀ + bias into out without allocating; out must
// be x.Rows × w.Rows and must not alias x or w.
func LinearInto(out, x, w *Tensor, bias []float32) *Tensor {
	MatMulTInto(out, x, w)
	if bias != nil {
		if len(bias) != out.Cols {
			panic("tensor: Linear bias length mismatch")
		}
		for i := 0; i < out.Rows; i++ {
			row := out.Row(i)
			for j, bv := range bias {
				row[j] += bv
			}
		}
	}
	return out
}
