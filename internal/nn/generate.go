package nn

import "math"

// KVCache holds per-layer key/value tensors for incremental decoding: one
// [T, dim] matrix pair per layer, grown as tokens are generated. This is the
// tensor LLM.265 compresses in §4.2 (40 GB at 128k context for a 70B model).
type KVCache struct {
	K, V []*Mat // per layer, rows = cached positions
	dim  int
}

// NewKVCache allocates an empty cache for a model.
func NewKVCache(layers, dim int) *KVCache {
	c := &KVCache{dim: dim}
	for i := 0; i < layers; i++ {
		c.K = append(c.K, &Mat{R: 0, C: dim, V: nil})
		c.V = append(c.V, &Mat{R: 0, C: dim, V: nil})
	}
	return c
}

// Len reports the number of cached positions.
func (c *KVCache) Len() int { return c.K[0].R }

// append adds one position's key/value rows for a layer.
func (c *KVCache) append(layer int, k, v []float32) {
	c.K[layer].V = append(c.K[layer].V, k...)
	c.K[layer].R++
	c.V[layer].V = append(c.V[layer].V, v...)
	c.V[layer].R++
}

// Transform applies fn to each layer's cached K and V matrices in place —
// the seam where cache compression plugs in.
func (c *KVCache) Transform(fn func(layer int, k, v *Mat) (*Mat, *Mat)) {
	for l := range c.K {
		c.K[l], c.V[l] = fn(l, c.K[l], c.V[l])
	}
}

// DecodeStep runs one token of autoregressive inference with the cache,
// returning the next-token logits. The token is appended to the cache.
// Position pos must equal cache.Len() and stay below the model's SeqLen.
func (m *Transformer) DecodeStep(cache *KVCache, token, pos int) []float32 {
	if pos != cache.Len() {
		panic("nn: DecodeStep position out of sync with cache")
	}
	if pos >= m.Cfg.SeqLen {
		panic("nn: DecodeStep beyond model context length")
	}
	dim := m.Cfg.Dim
	x := make([]float32, dim)
	erow := m.Embed.W.Row(token)
	prow := m.Pos.W.Row(pos)
	for j := range x {
		x[j] = erow[j] + prow[j]
	}

	for li, blk := range m.Blocks {
		x = blk.decodeStep(x, cache, li, m.Cfg.Heads)
	}
	// Final LayerNorm + head on the single row.
	xm := &Mat{R: 1, C: dim, V: x}
	logits := m.Head.Forward(m.LNF.Forward(xm))
	out := make([]float32, m.Cfg.Vocab)
	copy(out, logits.Row(0))
	return out
}

// decodeStep runs a block over a single position using the cache.
func (blk *Block) decodeStep(x []float32, cache *KVCache, layer, heads int) []float32 {
	dim := len(x)
	xm := &Mat{R: 1, C: dim, V: x}

	h := blk.LN1.Forward(xm)
	q := blk.Attn.Wq.Forward(h).Row(0)
	k := blk.Attn.Wk.Forward(h).Row(0)
	v := blk.Attn.Wv.Forward(h).Row(0)
	if blk.Attn.Hook != nil {
		km := &Mat{R: 1, C: dim, V: append([]float32(nil), k...)}
		vm := &Mat{R: 1, C: dim, V: append([]float32(nil), v...)}
		km, vm = blk.Attn.Hook(layer, km, vm)
		k, v = km.Row(0), vm.Row(0)
	}
	cache.append(layer, k, v)

	dh := dim / heads
	scale := 1 / math.Sqrt(float64(dh))
	attnOut := make([]float32, dim)
	K, V := cache.K[layer], cache.V[layer]
	T := K.R
	for hI := 0; hI < heads; hI++ {
		off := hI * dh
		scores := make([]float64, T)
		maxS := math.Inf(-1)
		for t := 0; t < T; t++ {
			krow := K.Row(t)[off : off+dh]
			var s float64
			for i := 0; i < dh; i++ {
				s += float64(q[off+i]) * float64(krow[i])
			}
			s *= scale
			scores[t] = s
			if s > maxS {
				maxS = s
			}
		}
		var sum float64
		for t := 0; t < T; t++ {
			scores[t] = math.Exp(scores[t] - maxS)
			sum += scores[t]
		}
		for t := 0; t < T; t++ {
			w := float32(scores[t] / sum)
			vrow := V.Row(t)[off : off+dh]
			for i := 0; i < dh; i++ {
				attnOut[off+i] += w * vrow[i]
			}
		}
	}
	am := &Mat{R: 1, C: dim, V: attnOut}
	o := blk.Attn.Wo.Forward(am)
	for j := range x {
		o.V[j] += x[j] // residual
	}
	mo := blk.MLP.Forward(blk.LN2.Forward(o))
	for j := range mo.V {
		mo.V[j] += o.V[j]
	}
	return mo.V
}
