package nn

import (
	"math"
	"math/rand"
	"strconv"
)

// Config describes a decoder-only transformer LM.
type Config struct {
	Vocab  int
	Dim    int
	Heads  int
	Layers int
	SeqLen int
	Hidden int // MLP hidden width; 0 → 4·Dim
}

func (c Config) withDefaults() Config {
	if c.Hidden == 0 {
		c.Hidden = 4 * c.Dim
	}
	return c
}

// Block is one pre-norm transformer block.
type Block struct {
	LN1  *LayerNorm
	Attn *CausalSelfAttention
	LN2  *LayerNorm
	MLP  *MLP
}

// Forward runs the block over a [B·T, dim] activation.
func (blk *Block) Forward(x *Mat, B, T int) *Mat {
	h := blk.Attn.Forward(blk.LN1.Forward(x), B, T)
	AddInPlace(h, x)
	h2 := blk.MLP.Forward(blk.LN2.Forward(h))
	AddInPlace(h2, h)
	return h2
}

// Backward propagates through the block.
func (blk *Block) Backward(dy *Mat) *Mat {
	dh := blk.LN2.Backward(blk.MLP.Backward(dy))
	AddInPlace(dh, dy) // residual
	dx := blk.LN1.Backward(blk.Attn.Backward(dh))
	AddInPlace(dx, dh) // residual
	return dx
}

func (blk *Block) params() []*Param {
	out := blk.LN1.params()
	out = append(out, blk.Attn.params()...)
	out = append(out, blk.LN2.params()...)
	out = append(out, blk.MLP.params()...)
	return out
}

// Transformer is a decoder-only language model: token+position embeddings,
// pre-norm blocks, final LayerNorm and an output head.
type Transformer struct {
	Cfg    Config
	Embed  *Param // [vocab, dim]
	Pos    *Param // [seqlen, dim]
	Blocks []*Block
	LNF    *LayerNorm
	Head   *Linear

	tokens []int // flattened forward cache for embedding backward
	b, t   int
}

// NewTransformer builds and initializes a model.
func NewTransformer(rng *rand.Rand, cfg Config) *Transformer {
	cfg = cfg.withDefaults()
	m := &Transformer{
		Cfg:   cfg,
		Embed: newParam("embed", RandMat(rng, cfg.Vocab, cfg.Dim, 0.02)),
		Pos:   newParam("pos", RandMat(rng, cfg.SeqLen, cfg.Dim, 0.02)),
		LNF:   NewLayerNorm("lnf", cfg.Dim),
		Head:  NewLinear(rng, "head", cfg.Dim, cfg.Vocab),
	}
	for i := 0; i < cfg.Layers; i++ {
		name := "block" + strconv.Itoa(i)
		m.Blocks = append(m.Blocks, &Block{
			LN1:  NewLayerNorm(name+".ln1", cfg.Dim),
			Attn: NewCausalSelfAttention(rng, name+".attn", cfg.Dim, cfg.Heads, i),
			LN2:  NewLayerNorm(name+".ln2", cfg.Dim),
			MLP:  NewMLP(rng, name+".mlp", cfg.Dim, cfg.Hidden),
		})
	}
	return m
}

// Params returns all trainable parameters in a stable order.
func (m *Transformer) Params() []*Param {
	out := []*Param{m.Embed, m.Pos}
	for _, b := range m.Blocks {
		out = append(out, b.params()...)
	}
	out = append(out, m.LNF.params()...)
	out = append(out, m.Head.params()...)
	return out
}

// ZeroGrads clears every gradient accumulator.
func (m *Transformer) ZeroGrads() {
	for _, p := range m.Params() {
		p.G.Zero()
	}
}

// NumParams reports the total parameter count.
func (m *Transformer) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += len(p.W.V)
	}
	return n
}

// EmbedForward embeds B sequences of T tokens into a [B·T, dim] matrix.
func (m *Transformer) EmbedForward(tokens [][]int) *Mat {
	B := len(tokens)
	T := len(tokens[0])
	m.b, m.t = B, T
	m.tokens = m.tokens[:0]
	x := NewMat(B*T, m.Cfg.Dim)
	for b := 0; b < B; b++ {
		for t := 0; t < T; t++ {
			tok := tokens[b][t]
			m.tokens = append(m.tokens, tok)
			row := x.Row(b*T + t)
			erow := m.Embed.W.Row(tok)
			prow := m.Pos.W.Row(t)
			for j := range row {
				row[j] = erow[j] + prow[j]
			}
		}
	}
	return x
}

// EmbedBackward accumulates embedding gradients from dx.
func (m *Transformer) EmbedBackward(dx *Mat) {
	B, T := m.b, m.t
	for b := 0; b < B; b++ {
		for t := 0; t < T; t++ {
			row := dx.Row(b*T + t)
			eg := m.Embed.G.Row(m.tokens[b*T+t])
			pg := m.Pos.G.Row(t)
			for j := range row {
				eg[j] += row[j]
				pg[j] += row[j]
			}
		}
	}
}

// BlockForward runs block i.
func (m *Transformer) BlockForward(i int, x *Mat) *Mat {
	return m.Blocks[i].Forward(x, m.b, m.t)
}

// BlockBackward propagates through block i.
func (m *Transformer) BlockBackward(i int, dy *Mat) *Mat {
	return m.Blocks[i].Backward(dy)
}

// HeadForward applies the final LayerNorm and output projection.
func (m *Transformer) HeadForward(x *Mat) *Mat {
	return m.Head.Forward(m.LNF.Forward(x))
}

// HeadBackward propagates through the head.
func (m *Transformer) HeadBackward(dlogits *Mat) *Mat {
	return m.LNF.Backward(m.Head.Backward(dlogits))
}

// Forward runs the whole model, returning logits [B·T, vocab].
func (m *Transformer) Forward(tokens [][]int) *Mat {
	x := m.EmbedForward(tokens)
	for i := range m.Blocks {
		x = m.BlockForward(i, x)
	}
	return m.HeadForward(x)
}

// LossAndGrad computes mean cross-entropy of logits against targets and the
// gradient dlogits. Target -1 masks a position out of the loss.
func LossAndGrad(logits *Mat, targets []int) (float64, *Mat) {
	if len(targets) != logits.R {
		panic("nn: targets length mismatch")
	}
	d := NewMat(logits.R, logits.C)
	var loss float64
	count := 0
	for i := 0; i < logits.R; i++ {
		if targets[i] < 0 {
			continue
		}
		count++
	}
	if count == 0 {
		return 0, d
	}
	invN := 1 / float64(count)
	for i := 0; i < logits.R; i++ {
		tgt := targets[i]
		if tgt < 0 {
			continue
		}
		row := logits.Row(i)
		drow := d.Row(i)
		maxv := float64(row[0])
		for _, v := range row {
			if float64(v) > maxv {
				maxv = float64(v)
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v) - maxv)
		}
		logZ := maxv + math.Log(sum)
		loss += (logZ - float64(row[tgt])) * invN
		for j, v := range row {
			p := math.Exp(float64(v) - logZ)
			drow[j] = float32(p * invN)
		}
		drow[tgt] -= float32(invN)
	}
	return loss, d
}

// TrainStep runs forward+backward on one batch and returns the loss.
// Gradients accumulate; callers zero them around optimizer steps.
func (m *Transformer) TrainStep(tokens [][]int, targets []int) float64 {
	logits := m.Forward(tokens)
	loss, dlogits := LossAndGrad(logits, targets)
	dx := m.HeadBackward(dlogits)
	for i := len(m.Blocks) - 1; i >= 0; i-- {
		dx = m.BlockBackward(i, dx)
	}
	m.EmbedBackward(dx)
	return loss
}

// Perplexity evaluates exp(mean NLL) over the given batches.
func (m *Transformer) Perplexity(batches [][][]int, targets [][]int) float64 {
	var nll float64
	var n int
	for i, toks := range batches {
		logits := m.Forward(toks)
		loss, _ := LossAndGrad(logits, targets[i])
		cnt := 0
		for _, t := range targets[i] {
			if t >= 0 {
				cnt++
			}
		}
		nll += loss * float64(cnt)
		n += cnt
	}
	if n == 0 {
		return math.Inf(1)
	}
	return math.Exp(nll / float64(n))
}

// SequenceNLL returns the total negative log-likelihood of a single token
// sequence under the model (used for multiple-choice scoring). scoreFrom
// masks loss to positions ≥ scoreFrom.
func (m *Transformer) SequenceNLL(seq []int, scoreFrom int) float64 {
	T := len(seq) - 1
	if T <= 0 {
		return 0
	}
	toks := [][]int{seq[:T]}
	logits := m.Forward(toks)
	targets := make([]int, T)
	for t := 0; t < T; t++ {
		if t+1 >= scoreFrom {
			targets[t] = seq[t+1]
		} else {
			targets[t] = -1
		}
	}
	loss, _ := LossAndGrad(logits, targets)
	cnt := 0
	for _, t := range targets {
		if t >= 0 {
			cnt++
		}
	}
	return loss * float64(cnt)
}

// SetKVHook installs a KV interception hook on every attention layer.
func (m *Transformer) SetKVHook(h KVHook) {
	for _, b := range m.Blocks {
		b.Attn.Hook = h
	}
}
