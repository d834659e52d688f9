package model_test

// The golden pin: FNV-64a digests of whole generations — the greedy tokens
// plus the wire encoding of the final state (every KV bit, the counters and
// the last stream norm), and for protected rows the controller's fork state
// (first-token bounds and correction counters) — recorded once and compared
// forever. The table holds for the three Table 2 families at both
// precisions, bare and under both protection controllers, on a short prompt
// and one long enough to cross the 64-row kernel tiers. A forward-path refactor that
// moves any bit anywhere in a generation changes a digest here.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"ft2/internal/core"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/protect"
)

// goldenPolicy is the chaos-bench adaptive policy (cmd/ft2bench
// benchChaosPareto), with OPT/GPT-J's FC1/FC2 given the tier it gives the
// Llama MLP kinds, so the hybrid's ABFT+FT2 tiers fire on every family.
func goldenPolicy() *protect.Policy {
	return &protect.Policy{Tiers: map[model.LayerKind]protect.Tier{
		model.KProj:    protect.TierNone,
		model.QProj:    protect.TierNone,
		model.VProj:    protect.TierABFTFT2,
		model.OutProj:  protect.TierABFTFT2,
		model.FC1:      protect.TierABFTFT2,
		model.FC2:      protect.TierABFTFT2,
		model.UpProj:   protect.TierABFTFT2,
		model.GateProj: protect.TierABFTFT2,
		model.DownProj: protect.TierABFTFT2,
	}}
}

// goldenPrompts: a 16-token prompt and an 80-token one.
func goldenPrompts() map[string][]int {
	short := make([]int, 16)
	for i := range short {
		short[i] = 4 + (i*37)%380
	}
	long := make([]int, 80)
	for i := range long {
		long[i] = 4 + (i*53+11)%380
	}
	return map[string][]int{"p16": short, "p80": long}
}

// goldenDigest hashes the generated tokens, the final state's snapshot and,
// when ctl is non-nil, the controller's fork state.
func goldenDigest(m *model.Model, ctl interface{ CaptureForkState() core.ForkState }, toks []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, tok := range toks {
		binary.LittleEndian.PutUint64(b[:], uint64(tok))
		h.Write(b[:])
	}
	var snap model.Snapshot
	m.Checkpoint(&snap)
	h.Write(model.AppendSnapshot(nil, &snap))
	if ctl != nil {
		fs := ctl.CaptureForkState()
		h.Write(core.AppendForkState(nil, &fs))
	}
	return h.Sum64()
}

const goldenGen = 16

// goldenTable was recorded on the original two-forward engine (serial
// Prefill/DecodeStep plus a separate fused batch forward) and must pass
// unchanged on every later engine.
var goldenTable = map[string]uint64{
	"opt-6.7b-sim/fp16/bare/p16":    0x48d75820760bc7d3,
	"opt-6.7b-sim/fp16/bare/p80":    0x26339f9f4246c137,
	"opt-6.7b-sim/fp16/ft2/p16":     0xfb1b1514ac428946,
	"opt-6.7b-sim/fp16/ft2/p80":     0x6f2489a8abbc59c4,
	"opt-6.7b-sim/fp16/hybrid/p16":  0xa9a446ecb8c932c5,
	"opt-6.7b-sim/fp16/hybrid/p80":  0x37f2af1c5a3bc234,
	"opt-6.7b-sim/fp32/bare/p16":    0x77e02e3c4fc6e0ee,
	"opt-6.7b-sim/fp32/bare/p80":    0x78b57eb1ffddf881,
	"opt-6.7b-sim/fp32/ft2/p16":     0xa92a52341cbdbe33,
	"opt-6.7b-sim/fp32/ft2/p80":     0xb5d5a12ea0f5e091,
	"opt-6.7b-sim/fp32/hybrid/p16":  0x619c181238796367,
	"opt-6.7b-sim/fp32/hybrid/p80":  0x25d16cb433c39439,
	"gptj-6b-sim/fp16/bare/p16":     0x5b432adbd218f72c,
	"gptj-6b-sim/fp16/bare/p80":     0x26dae732023c54cf,
	"gptj-6b-sim/fp16/ft2/p16":      0x1eec2abe8eb02e31,
	"gptj-6b-sim/fp16/ft2/p80":      0xddc9c944d359cf70,
	"gptj-6b-sim/fp16/hybrid/p16":   0x800518aa705ee2e9,
	"gptj-6b-sim/fp16/hybrid/p80":   0xc38e22fad2508ac6,
	"gptj-6b-sim/fp32/bare/p16":     0x7f4bc4ed9ab4bc48,
	"gptj-6b-sim/fp32/bare/p80":     0x8aff48f173056508,
	"gptj-6b-sim/fp32/ft2/p16":      0x241e22c7b6aa68fb,
	"gptj-6b-sim/fp32/ft2/p80":      0xbf845eef49794242,
	"gptj-6b-sim/fp32/hybrid/p16":   0x77cc9652e6af6508,
	"gptj-6b-sim/fp32/hybrid/p80":   0x4edaf02a1bcb43c8,
	"llama2-7b-sim/fp16/bare/p16":   0xe102c7d33b2e628a,
	"llama2-7b-sim/fp16/bare/p80":   0x26ad4ff1fc70e981,
	"llama2-7b-sim/fp16/ft2/p16":    0xe73b48e0c2cba57c,
	"llama2-7b-sim/fp16/ft2/p80":    0x7a66d193e05eee62,
	"llama2-7b-sim/fp16/hybrid/p16": 0x08c62ab0353d8fe1,
	"llama2-7b-sim/fp16/hybrid/p80": 0x0e3ca14a5e6f179c,
	"llama2-7b-sim/fp32/bare/p16":   0x0b64b287ac969333,
	"llama2-7b-sim/fp32/bare/p80":   0xe4cbdf8da1f36628,
	"llama2-7b-sim/fp32/ft2/p16":    0xc14fa86573b72366,
	"llama2-7b-sim/fp32/ft2/p80":    0x27948f4d4bb6c11f,
	"llama2-7b-sim/fp32/hybrid/p16": 0x7bceb026392b366e,
	"llama2-7b-sim/fp32/hybrid/p80": 0x6240a947c10e7e5f,
}

func TestGoldenPin(t *testing.T) {
	prompts := goldenPrompts()
	for _, name := range []string{"opt-6.7b-sim", "gptj-6b-sim", "llama2-7b-sim"} {
		cfg, err := model.ConfigByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, dt := range []numerics.DType{numerics.FP16, numerics.FP32} {
			for _, prot := range []string{"bare", "ft2", "hybrid"} {
				m := model.MustNew(cfg, 42, dt)
				gen := m.Generate
				var ctl interface{ CaptureForkState() core.ForkState }
				switch prot {
				case "ft2":
					f := core.Attach(m, core.Defaults())
					gen, ctl = f.Generate, f
				case "hybrid":
					h := core.NewHybrid(m, core.Defaults(), goldenPolicy(), nil)
					h.Install()
					gen, ctl = h.Generate, h
				}
				for _, pn := range []string{"p16", "p80"} {
					key := fmt.Sprintf("%s/%s/%s/%s", name, dt, prot, pn)
					got := goldenDigest(m, ctl, gen(prompts[pn], goldenGen))
					if want, ok := goldenTable[key]; !ok || got != want {
						t.Errorf("golden %q: digest %#016x, pinned %#016x", key, got, want)
					}
				}
			}
		}
	}
}
