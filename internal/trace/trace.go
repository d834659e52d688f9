// Package trace records how a fault propagates through the network: it
// captures every hook site's activations during a golden (fault-free) run
// and then measures, site by site and step by step, how far a faulty run
// deviates. This is the instrumentation behind the paper's Section 4.1.1
// analysis — residual branches recovering NaN, scaling operations and
// activations damping extreme values, and out-of-bound values surviving
// until a protected layer clips them.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ft2/internal/model"
	"ft2/internal/tensor"
)

// siteKey addresses one hook invocation.
type siteKey struct {
	Step  int
	Layer model.LayerRef
	Site  model.Site
}

// Deviation summarizes how one site's activations differ between the golden
// and the faulty run.
type Deviation struct {
	Step     int
	Layer    model.LayerRef
	Site     model.Site
	MaxAbs   float64 // max |faulty - golden| over finite pairs
	RelL2    float64 // ‖faulty-golden‖ / (‖golden‖ + ε)
	NaNCount int     // NaNs in the faulty tensor
}

// Tracer captures golden activations and compares faulty runs against them.
type Tracer struct {
	golden map[siteKey][]float32
}

// New returns an empty tracer.
func New() *Tracer {
	return &Tracer{golden: make(map[siteKey][]float32)}
}

// RecordHook returns a hook that snapshots every site of the golden run.
func (t *Tracer) RecordHook() model.Hook {
	return func(ctx model.HookCtx, out *tensor.Tensor) {
		k := siteKey{Step: ctx.Step, Layer: ctx.Layer, Site: ctx.Site}
		t.golden[k] = append([]float32(nil), out.Data...)
	}
}

// SiteCount reports how many golden snapshots are held.
func (t *Tracer) SiteCount() int { return len(t.golden) }

// CompareHook returns a hook that, during the faulty run, appends one
// Deviation per site to out. Sites missing from the golden record (a
// different prompt or generation length) are an error surfaced via the
// returned pointer after the run.
func (t *Tracer) CompareHook(out *[]Deviation, errOut *error) model.Hook {
	return func(ctx model.HookCtx, tens *tensor.Tensor) {
		k := siteKey{Step: ctx.Step, Layer: ctx.Layer, Site: ctx.Site}
		ref, ok := t.golden[k]
		if !ok || len(ref) != len(tens.Data) {
			if *errOut == nil {
				*errOut = fmt.Errorf("trace: no golden snapshot for step %d %v/%v (shape drift?)", ctx.Step, ctx.Layer, ctx.Site)
			}
			return
		}
		d := Deviation{Step: ctx.Step, Layer: ctx.Layer, Site: ctx.Site}
		var num, den float64
		for i, v := range tens.Data {
			g := float64(ref[i])
			f := float64(v)
			if math.IsNaN(f) {
				d.NaNCount++
				continue
			}
			diff := math.Abs(f - g)
			if diff > d.MaxAbs {
				d.MaxAbs = diff
			}
			num += (f - g) * (f - g)
			den += g * g
		}
		d.RelL2 = math.Sqrt(num) / (math.Sqrt(den) + 1e-12)
		*out = append(*out, d)
	}
}

// Run traces a faulty execution against a fresh golden run of the same
// model. prepare registers the fault-producing hooks (injector, protector)
// on the model; the tracer's compare hook is call-scoped and runs after
// them, so hook ordering inside prepare matches campaign semantics.
func Run(m *model.Model, prompt []int, genTokens int, prepare func()) ([]Deviation, error) {
	tr := New()
	m.Generate(prompt, genTokens, tr.RecordHook())

	var devs []Deviation
	var cmpErr error
	m.ClearHooks()
	prepare()
	m.Generate(prompt, genTokens, tr.CompareHook(&devs, &cmpErr))
	m.ClearHooks()
	if cmpErr != nil {
		return nil, cmpErr
	}
	return devs, nil
}

// Affected filters deviations to those with measurable corruption.
func Affected(devs []Deviation, relThreshold float64) []Deviation {
	var out []Deviation
	for _, d := range devs {
		if d.RelL2 > relThreshold || d.NaNCount > 0 {
			out = append(out, d)
		}
	}
	return out
}

// Summarize renders the worst deviation per (layer, site) across steps,
// ordered by forward position — a compact propagation picture.
func Summarize(devs []Deviation, family model.Family) string {
	type agg struct {
		maxRel  float64
		maxAbs  float64
		nan     int
		firstAt int
	}
	byLayer := make(map[siteKey]*agg) // step 0 key reused with Step=-1
	for _, d := range devs {
		k := siteKey{Step: -1, Layer: d.Layer, Site: d.Site}
		a := byLayer[k]
		if a == nil {
			a = &agg{firstAt: d.Step}
			byLayer[k] = a
		}
		if d.RelL2 > a.maxRel {
			a.maxRel = d.RelL2
		}
		if d.MaxAbs > a.maxAbs {
			a.maxAbs = d.MaxAbs
		}
		a.nan += d.NaNCount
	}
	keys := make([]siteKey, 0, len(byLayer))
	for k := range byLayer {
		keys = append(keys, k)
	}
	order := make(map[model.LayerKind]int)
	for i, k := range family.LayerKinds() {
		order[k] = i
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Layer.Block != b.Layer.Block {
			return a.Layer.Block < b.Layer.Block
		}
		if order[a.Layer.Kind] != order[b.Layer.Kind] {
			return order[a.Layer.Kind] < order[b.Layer.Kind]
		}
		return a.Site < b.Site
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %-12s %-12s %-8s\n", "site", "max rel-L2", "max |dev|", "NaNs")
	for _, k := range keys {
		a := byLayer[k]
		fmt.Fprintf(&sb, "%-28s %-12.4g %-12.4g %-8d\n",
			fmt.Sprintf("%s/%s", k.Layer, k.Site), a.maxRel, a.maxAbs, a.nan)
	}
	return sb.String()
}
