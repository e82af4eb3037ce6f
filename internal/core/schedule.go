package core

import "fmt"

// VariableSchedule returns per-layer bit budgets following the paper's
// variable bit-width rule (§4.1 footnote 2): B_l = k·l + b, with b chosen so
// the average over layers equals avgBits. Budgets are floored at minBits so
// a steep slope cannot drive a layer to zero.
//
// Invariants: every returned budget is >= minBits, always. When no layer is
// floored the average equals avgBits exactly; when the floor binds, the
// headroom above the floor is drained proportionally to pay for the floored
// layers, and if even draining every layer to minBits cannot reach avgBits
// (i.e. minBits > avgBits, so the two constraints conflict), the floor wins
// and the average sits above avgBits at exactly minBits.
func VariableSchedule(layers int, avgBits, k, minBits float64) []float64 {
	if layers <= 0 {
		panic("core: layers must be positive")
	}
	b := avgBits - float64(k*float64(layers-1)/2)
	out := make([]float64, layers)
	var sum float64
	for l := range out {
		v := float64(k*float64(l)) + b
		if v < minBits {
			v = minBits
		}
		out[l] = v
		sum += v
	}
	// Renormalize after flooring so the average matches the budget: floored
	// layers keep their floor and the excess is drained from the remaining
	// layers in proportion to their headroom above minBits. The drain factor
	// f = excess/adjustable removes exactly `excess` when f <= 1; it is
	// clamped at 1 (drain all headroom, every layer lands on minBits) because
	// f > 1 — which happens exactly when minBits > avgBits — would push
	// budgets below the floor, violating the minBits guarantee for the sake
	// of an average that is unreachable anyway.
	excess := sum - float64(avgBits*float64(layers))
	if excess > 0 {
		var adjustable float64
		for _, v := range out {
			if v > minBits {
				adjustable += v - minBits
			}
		}
		if adjustable > 0 {
			f := excess / adjustable
			if f > 1 {
				f = 1
			}
			for l, v := range out {
				if v > minBits {
					out[l] = v - float64((v-minBits)*f)
				}
			}
		}
	}
	return out
}

// SearchVariableSchedule sweeps the slope k over candidates and returns the
// schedule minimizing eval (lower is better, e.g. perplexity or negative
// accuracy). The k=0 candidate is always included, so the result never loses
// to the fixed-bit-width baseline under the same eval.
func SearchVariableSchedule(layers int, avgBits float64, ks []float64, eval func(budgets []float64) float64) ([]float64, float64, error) {
	if len(ks) == 0 {
		return nil, 0, fmt.Errorf("core: no slope candidates")
	}
	hasZero := false
	for _, k := range ks {
		if k == 0 {
			hasZero = true
		}
	}
	if !hasZero {
		ks = append([]float64{0}, ks...)
	}
	var (
		best      []float64
		bestScore float64
	)
	for _, k := range ks {
		sched := VariableSchedule(layers, avgBits, k, 0.4)
		if score := eval(sched); best == nil || score < bestScore {
			best, bestScore = sched, score
		}
	}
	return best, bestScore, nil
}
