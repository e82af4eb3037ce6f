package main

import (
	"encoding/binary"
	"math"
	"math/rand"
)

// Frozen coding points. Each was chosen once so that bits_per_value, taken on
// the anchor half of a workload's pool, lands in the paper's 2–3.5 bits/value
// band (README.md, "Inputs and coding points"), and is recorded in
// BENCHMARK.json through the workload descriptions in run.go.
const (
	weightsQP  = 12
	weightsRho = 0.3 // inter-layer correlation of the generated stacks
	serveQP    = 4
	kvQP       = 24
	gradQP     = 12
	gradOrders = 2.0
)

// anchorSeed generates the first half of every pool of inputs, whatever
// --seed says; the second half comes from --seed. Both halves are timed and
// verified alike. bits_per_value and rel_mse are taken on the anchor half
// alone: they say what the codec does to given inputs at the frozen coding
// point, and on inputs no --seed changes they repeat exactly, so any movement
// is a change of bytes. The inputs are tensorgen's as drawn, outlier columns
// and channels included; a pool is large enough to hold both sorts.
const anchorSeed = 265

// seedFor returns the seed of element i of a pool of n inputs.
func seedFor(runSeed int64, i, n int) int64 {
	if i < n/2 {
		return anchorSeed
	}
	return runSeed
}

// rngFor derives an independent generator for one purpose from the seed, so
// adding a draw to one generator never shifts another's inputs.
func rngFor(seed int64, purpose string) *rand.Rand {
	h := uint64(seed)
	for _, b := range []byte(purpose) {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h)))
}

// weightStack is one tensorgen.WeightStack(ρ = weightsRho) of depth layers.
func weightStack(rng *rand.Rand, depth int) []*coreTensor {
	stack := make([]*coreTensor, depth)
	for l, data := range genWeightStack(rng, depth, weightDim, weightDim, weightsRho) {
		stack[l] = coreFromSlice(weightDim, weightDim, data)
	}
	return stack
}

func f32Bytes(vals []float32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

func bytesF32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// sameBits reports whether a and b hold identical float32 bit patterns.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// distortion accumulates squared error against input variance over any
// number of tensors; rel is MSE ÷ variance, the rel_mse metric.
type distortion struct {
	sse, sum, sumSq float64
	n               int
}

func (d *distortion) add(orig, recon []float32) {
	for i, v := range orig {
		e := float64(recon[i]) - float64(v)
		d.sse += e * e
		d.sum += float64(v)
		d.sumSq += float64(v) * float64(v)
	}
	d.n += len(orig)
}

func (d *distortion) merge(o distortion) {
	d.sse += o.sse
	d.sum += o.sum
	d.sumSq += o.sumSq
	d.n += o.n
}

func (d *distortion) rel() float64 {
	n := float64(d.n)
	mean := d.sum / n
	return (d.sse / n) / (d.sumSq/n - mean*mean)
}
