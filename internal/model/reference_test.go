package model

// The reference forward: a deliberately naive, test-only reimplementation
// of the decoder that the engine's one forward path (ForwardBatch, and the
// single-session calls built on it) is pinned to bit-for-bit. Each linear
// output element is one tensor.DotRow plus bias, attention is plain
// per-position loops over unslabbed per-position K/V rows, and every
// intermediate is freshly allocated: no LinearInto, no worker pool, no
// scratch arena, no head-blocked slabs. It rounds at the same Quantize
// points and fires hooks at the same sites with the same tensors (the
// session's own rows) as the engine, so protection controllers can ride
// on it too. The exported names exist for the model_test batteries.

import (
	"fmt"
	"math"

	"ft2/internal/tensor"
)

// Reference runs the naive forward over a model's weights.
type Reference struct{ m *Model }

// NewReference wraps m's weights; it never touches m's generation state,
// hooks or scratch arena.
func NewReference(m *Model) *Reference { return &Reference{m: m} }

// RefSession is one generation's state in the reference: per block, one
// K and one V row (hidden wide) per position processed so far.
type RefSession struct {
	k, v       [][][]float32
	heads      int
	maxSeq     int
	promptLen  int
	fed        int // prompt rows processed
	step       int
	lastTok    int
	streamNorm float32
}

// Begin opens a generation for a prompt of n tokens.
func (r *Reference) Begin(n int) *RefSession {
	b := len(r.m.blocks)
	return &RefSession{k: make([][][]float32, b), v: make([][][]float32, b),
		heads: r.m.Cfg.Heads, maxSeq: r.m.Cfg.MaxSeq, promptLen: n}
}

// Chunk feeds the next consecutive prompt tokens. It returns the first
// token when the chunk completes the prompt and -1 otherwise.
func (r *Reference) Chunk(s *RefSession, toks []int, hooks ...Hook) int {
	if s.fed+len(toks) > s.promptLen {
		panic("reference: chunk overruns prompt")
	}
	x := r.forward(s, toks, s.fed, hooks)
	s.fed += len(toks)
	if s.fed < s.promptLen {
		return -1
	}
	return r.readout(s, x.Row(x.Rows-1), toks[len(toks)-1])
}

// Decode feeds tok at the next position and returns the next token.
func (r *Reference) Decode(s *RefSession, tok int, hooks ...Hook) int {
	s.step++
	x := r.forward(s, []int{tok}, s.promptLen+s.step-1, hooks)
	return r.readout(s, x.Row(0), tok)
}

// Generate greedily decodes n tokens after a one-chunk prefill.
func (r *Reference) Generate(prompt []int, n int, hooks ...Hook) ([]int, *RefSession) {
	s := r.Begin(len(prompt))
	tok := r.Chunk(s, prompt, hooks...)
	out := []int{tok}
	for len(out) < n {
		tok = r.Decode(s, tok, hooks...)
		out = append(out, tok)
	}
	return out, s
}

// forward runs the embedding and block stack over toks at absolute
// positions pos0, pos0+1, … and returns the residual stream.
func (r *Reference) forward(s *RefSession, toks []int, pos0 int, hooks []Hook) *tensor.Tensor {
	m := r.m
	cfg := m.Cfg
	x := tensor.New(len(toks), cfg.Hidden)
	for i, tok := range toks {
		row := x.Row(i)
		copy(row, m.embed.Row(tok))
		if cfg.Family == FamilyOPT {
			for c, pv := range m.posEmb.Row(pos0 + i) {
				row[c] += pv
			}
		}
	}
	x.Quantize(m.DType)
	for b, blk := range m.blocks {
		normed := r.norm(blk.ln1, x)
		attn := r.attention(s, b, normed, pos0, hooks)
		if cfg.Family == FamilyGPTJ {
			add(x, attn)
			add(x, r.mlp(s, b, normed, hooks))
		} else {
			add(x, attn)
			add(x, r.mlp(s, b, r.norm(blk.ln2, x), hooks))
		}
		x.Quantize(m.DType)
	}
	return x
}

func add(x, y *tensor.Tensor) {
	for i, v := range y.Data {
		x.Data[i] += v
	}
}

func (r *Reference) norm(n norm, x *tensor.Tensor) *tensor.Tensor {
	if r.m.Cfg.Family == FamilyLlama {
		return tensor.RMSNorm(x, n.gamma, 1e-6)
	}
	return tensor.LayerNorm(x, n.gamma, n.beta, 1e-5)
}

// fire runs hooks on out at one layer site, as the engine does.
func (r *Reference) fire(s *RefSession, ref LayerRef, site Site, in, out *tensor.Tensor, hooks []Hook) {
	ctx := HookCtx{Layer: ref, Site: site, Input: in, Step: s.step, FirstToken: s.step == 0}
	for _, h := range hooks {
		h(ctx, out)
	}
	out.MarkMutated()
}

// linear computes every output element as one DotRow plus bias, rounds,
// and fires the layer's hooks.
func (r *Reference) linear(s *RefSession, ref LayerRef, x *tensor.Tensor, hooks []Hook) *tensor.Tensor {
	l := r.m.linearByRef(ref)
	out := tensor.New(x.Rows, l.w.Rows)
	for i := 0; i < x.Rows; i++ {
		for o := 0; o < l.w.Rows; o++ {
			v := tensor.DotRow(x.Row(i), l.w.Row(o))
			if l.b != nil {
				v += l.b[o]
			}
			out.Data[i*out.Cols+o] = v
		}
	}
	out.Quantize(r.m.DType)
	r.fire(s, ref, SiteLinearOut, x, out, hooks)
	return out
}

// attention appends the rows' K/V to the session and attends each row
// causally over every position up to its own, head by head.
func (r *Reference) attention(s *RefSession, b int, x *tensor.Tensor, pos0 int, hooks []Hook) *tensor.Tensor {
	cfg := r.m.Cfg
	d := cfg.HeadDim()
	k := r.linear(s, LayerRef{b, KProj}, x, hooks)
	q := r.linear(s, LayerRef{b, QProj}, x, hooks)
	v := r.linear(s, LayerRef{b, VProj}, x, hooks)
	if cfg.Family != FamilyOPT {
		for i := 0; i < x.Rows; i++ {
			for h := 0; h < cfg.Heads; h++ {
				pos := []int{pos0 + i}
				tensor.RotaryEmbed(tensor.FromSlice(1, d, q.Row(i)[h*d:(h+1)*d]), pos, d, 10000)
				tensor.RotaryEmbed(tensor.FromSlice(1, d, k.Row(i)[h*d:(h+1)*d]), pos, d, 10000)
			}
		}
	}
	for i := 0; i < x.Rows; i++ {
		s.k[b] = append(s.k[b], append([]float32(nil), k.Row(i)...))
		s.v[b] = append(s.v[b], append([]float32(nil), v.Row(i)...))
	}

	ctxOut := tensor.New(x.Rows, cfg.Hidden)
	scale := float32(1 / math.Sqrt(float64(d)))
	for i := 0; i < x.Rows; i++ {
		n := pos0 + i + 1 // causal: positions 0..own
		for h := 0; h < cfg.Heads; h++ {
			lo, hi := h*d, (h+1)*d
			scores := make([]float32, n)
			maxv := float32(math.Inf(-1))
			for j := 0; j < n; j++ {
				scores[j] = tensor.Dot(q.Row(i)[lo:hi], s.k[b][j][lo:hi]) * scale
				if !math.IsNaN(float64(scores[j])) && scores[j] > maxv {
					maxv = scores[j]
				}
			}
			var sum float32
			for j := range scores {
				scores[j] = float32(math.Exp(float64(scores[j] - maxv)))
				sum += scores[j]
			}
			if sum > 0 {
				inv := 1 / sum
				out := ctxOut.Row(i)[lo:hi]
				for j, p := range scores {
					if p *= inv; p != 0 {
						tensor.Axpy(out, s.v[b][j][lo:hi], p)
					}
				}
			}
		}
	}
	ctxOut.Quantize(r.m.DType)
	return r.linear(s, LayerRef{b, OutProj}, ctxOut, hooks)
}

func (r *Reference) mlp(s *RefSession, b int, x *tensor.Tensor, hooks []Hook) *tensor.Tensor {
	m := r.m
	if m.Cfg.Family == FamilyLlama {
		gate := r.linear(s, LayerRef{b, GateProj}, x, hooks)
		up := r.linear(s, LayerRef{b, UpProj}, x, hooks)
		m.Cfg.Activation.Apply(gate)
		for i, u := range up.Data {
			gate.Data[i] *= u
		}
		gate.Quantize(m.DType)
		r.fire(s, LayerRef{b, GateProj}, SiteActivationOut, nil, gate, hooks)
		return r.linear(s, LayerRef{b, DownProj}, gate, hooks)
	}
	h := r.linear(s, LayerRef{b, FC1}, x, hooks)
	m.Cfg.Activation.Apply(h)
	h.Quantize(m.DType)
	r.fire(s, LayerRef{b, FC1}, SiteActivationOut, nil, h, hooks)
	return r.linear(s, LayerRef{b, FC2}, h, hooks)
}

// readout turns the final residual row into the greedy next token: stream
// norm, teacher prior, final norm, tied-embedding logits.
func (r *Reference) readout(s *RefSession, final []float32, lastTok int) int {
	m := r.m
	cfg := m.Cfg
	row := append([]float32(nil), final...)
	var ss float64
	for _, v := range row {
		ss += float64(v) * float64(v)
	}
	s.streamNorm = float32(math.Sqrt(ss))
	if cfg.TeacherWeight > 0 && m.streamNorm > 0 {
		emb := m.embed.Row(m.teacher[lastTok])
		var tn float64
		for _, v := range emb {
			tn += float64(v) * float64(v)
		}
		if tn > 0 {
			scale := cfg.TeacherWeight * m.streamNorm / float32(math.Sqrt(tn))
			for c, v := range emb {
				row[c] += scale * v
			}
		}
	}
	normed := r.norm(m.lnF, tensor.FromSlice(1, cfg.Hidden, row)).Data
	best, bestV := 0, float32(math.Inf(-1))
	for tok := 0; tok < cfg.Vocab; tok++ {
		logit := tensor.DotRow(normed, m.embed.Row(tok)) * cfg.LogitScale
		if !math.IsNaN(float64(logit)) && logit > bestV {
			best, bestV = tok, logit
		}
	}
	s.lastTok = best
	return best
}

// MatchKV compares the engine state's KV slabs with the reference rows
// bit for bit.
func (s *RefSession) MatchKV(st *DecodeState) error {
	for b := range s.k {
		k, v, rows := st.KVSlabs(b)
		if rows != len(s.k[b]) {
			return fmt.Errorf("block %d: engine holds %d KV rows, reference %d", b, rows, len(s.k[b]))
		}
		for p := 0; p < rows; p++ {
			hidden := len(s.k[b][p])
			d := hidden / s.heads
			for c := 0; c < hidden; c++ {
				off := ((c/d)*s.maxSeq+p)*d + c%d // head-blocked slab layout
				if math.Float32bits(k[off]) != math.Float32bits(s.k[b][p][c]) ||
					math.Float32bits(v[off]) != math.Float32bits(s.v[b][p][c]) {
					return fmt.Errorf("block %d position %d channel %d: engine K/V %g/%g, reference %g/%g",
						b, p, c, k[off], v[off], s.k[b][p][c], s.v[b][p][c])
				}
			}
		}
	}
	return nil
}

// Match compares the whole engine state — counters, last token, stream
// norm and KV — with the reference session.
func (s *RefSession) Match(st *DecodeState) error {
	if st.promptLen != s.promptLen || st.prefillPos != s.fed || st.step != s.step || st.lastTok != s.lastTok {
		return fmt.Errorf("counters: engine prompt %d fed %d step %d last %d, reference %d/%d/%d/%d",
			st.promptLen, st.prefillPos, st.step, st.lastTok, s.promptLen, s.fed, s.step, s.lastTok)
	}
	if math.Float32bits(st.lastStreamNorm) != math.Float32bits(s.streamNorm) {
		return fmt.Errorf("stream norm: engine %g, reference %g", st.lastStreamNorm, s.streamNorm)
	}
	return s.MatchKV(st)
}
