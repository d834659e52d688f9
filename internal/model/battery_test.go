package model_test

import (
	"fmt"
	"reflect"
	"testing"

	"ft2/internal/core"
	"ft2/internal/model"
	"ft2/internal/numerics"
)

// TestReferenceBattery pins the single-session API — Prefill, PrefillChunk,
// ResumePrefillPrefix and DecodeStep, with the protection hook registered
// on the model — to the reference forward: for the three Table 2 families
// at both precisions, bare and under FT2 and the hybrid, a single-pass, a
// chunked and a cache-seeded prefill of a 72-token prompt must each yield
// the reference's tokens, its final state bits and, when protected, its
// controller fork state (first-token bounds and counters).
func TestReferenceBattery(t *testing.T) {
	const gen = 6
	prompt := make([]int, 72)
	for i := range prompt {
		prompt[i] = 4 + (i*29+7)%380
	}
	const chunk, cached = 9, 40
	for _, name := range []string{"opt-6.7b-sim", "gptj-6b-sim", "llama2-7b-sim"} {
		cfg, err := model.ConfigByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, dt := range []numerics.DType{numerics.FP16, numerics.FP32} {
			for _, prot := range []string{"bare", "ft2", "hybrid"} {
				twin := model.MustNew(cfg, 42, dt)
				var hooks []model.Hook
				refCtl := newController(twin, prot)
				if refCtl != nil {
					hooks = append(hooks, refCtl.Hook())
				}
				want, ref := model.NewReference(twin).Generate(prompt, gen, hooks...)

				// The cache entry and the first-token bounds partial over its
				// rows, as the serving prefix cache records them.
				donor := model.MustNew(cfg, 42, dt)
				donorCtl := newController(donor, prot)
				if donorCtl != nil {
					donorCtl.Install()
				}
				donor.BeginPrefill(len(prompt))
				donor.PrefillChunk(prompt[:cached])
				var partial core.ForkState
				if donorCtl != nil {
					partial = donorCtl.CaptureForkState()
				}
				donor.PrefillChunk(prompt[cached:])
				var snap model.Snapshot
				donor.Checkpoint(&snap)

				for _, mode := range []string{"single", "chunked", "cached"} {
					key := fmt.Sprintf("%s/%s/%s/%s", name, dt, prot, mode)
					m := model.MustNew(cfg, 42, dt)
					ctl := newController(m, prot)
					if ctl != nil {
						ctl.Install()
						if mode == "cached" {
							ctl.ResumeFork(partial)
						}
					}
					var tok int
					switch mode {
					case "single":
						tok = m.Prefill(prompt)
					case "chunked":
						m.BeginPrefill(len(prompt))
						for pos := 0; pos < len(prompt); pos += chunk {
							tok, _ = m.PrefillChunk(prompt[pos:min(pos+chunk, len(prompt))])
						}
					case "cached":
						m.BeginPrefill(len(prompt))
						m.ResumePrefillPrefix(snap.Prefix(cached))
						tok, _ = m.PrefillChunk(prompt[cached:])
					}
					got := []int{tok}
					for len(got) < gen {
						tok = m.DecodeStep(tok)
						got = append(got, tok)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: tokens %v, reference %v", key, got, want)
					}
					if err := ref.Match(m.State()); err != nil {
						t.Errorf("%s: %v", key, err)
					}
					if ctl != nil && forkBytes(ctl) != forkBytes(refCtl) {
						t.Errorf("%s: controller fork state differs from the reference run", key)
					}
				}
			}
		}
	}
}
