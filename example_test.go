package ft2_test

import (
	"fmt"

	"ft2"
)

// Example demonstrates the one-call FT2 flow: build a zoo model, attach the
// protection, and run a protected generation.
func Example() {
	cfg, err := ft2.ModelByName("llama2-7b-sim")
	if err != nil {
		panic(err)
	}
	m, err := ft2.NewModel(cfg, 42, ft2.FP16)
	if err != nil {
		panic(err)
	}
	prot := ft2.Protect(m, ft2.DefaultOptions())

	out := prot.Generate([]int{4, 17, 42, 99}, 8)
	fmt.Println(len(out), "tokens, bounds for", prot.Bounds().Len(), "layers")
	// Output: 8 tokens, bounds for 12 layers
}

// ExampleIsCriticalLayer shows the structural criticality heuristic.
func ExampleIsCriticalLayer() {
	cfg, _ := ft2.ModelByName("opt-6.7b-sim")
	for _, kind := range cfg.Family.LayerKinds() {
		fmt.Printf("%s critical=%v\n", kind, ft2.IsCriticalLayer(cfg, kind))
	}
	// Output:
	// K_PROJ critical=false
	// Q_PROJ critical=false
	// V_PROJ critical=true
	// OUT_PROJ critical=true
	// FC1 critical=false
	// FC2 critical=true
}

// ExampleModels lists the paper's Table 2 zoo.
func ExampleModels() {
	for _, cfg := range ft2.Models() {
		fmt.Println(cfg.Name)
	}
	// Output:
	// opt-6.7b-sim
	// opt-2.7b-sim
	// gptj-6b-sim
	// llama2-7b-sim
	// vicuna-7b-sim
	// qwen2-7b-sim
	// qwen2-1.5b-sim
}
