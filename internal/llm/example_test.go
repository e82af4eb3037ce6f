package llm_test

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/nn"
)

// ExampleResidual shows the §5.1 residual-compensation scheme: primary pass
// plus residual pass, with the two-phase switch to RTN.
func ExampleResidual() {
	rng := rand.New(rand.NewSource(2))
	g := &nn.Mat{R: 32, C: 32, V: make([]float32, 32*32)}
	for i := range g.V {
		g.V[i] = float32(rng.NormFloat64() * 1e-3)
	}

	c := llm.Residual(core.DefaultOptions(), 3.5, 1)
	_, bits1, err := c(g) // phase 1: codec + codec residual
	if err != nil {
		panic(err)
	}
	_, bits2, err := c(g) // phase 2: codec + 8-bit RTN residual
	if err != nil {
		panic(err)
	}
	fmt.Println(bits1 < 8, bits2 >= 8)
	// Output:
	// true true
}
