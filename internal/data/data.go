// Package data generates the synthetic corpora that stand in for the Pile
// subset the paper trains on (DESIGN.md §2): a sparse Markov language whose
// per-token entropy is far below log(vocab), so models have something real
// to learn and perplexity trajectories are informative.
package data

import "math/rand"

// Corpus is a tokenized synthetic language with train and validation splits.
type Corpus struct {
	Vocab int
	train []int
	valid []int

	// trans[t] lists the successors of t with cumulative probabilities.
	trans [][]successor
}

type successor struct {
	tok int
	cum float64
}

// NewCorpus builds a corpus of trainLen+validLen tokens over the given
// vocabulary with a sparse first-order Markov transition structure
// (each token has 4 plausible successors at probabilities .55/.25/.15/.05).
func NewCorpus(seed int64, vocab, trainLen, validLen int) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &Corpus{Vocab: vocab}
	probs := []float64{0.55, 0.25, 0.15, 0.05}
	c.trans = make([][]successor, vocab)
	for t := 0; t < vocab; t++ {
		perm := rng.Perm(vocab)
		var cum float64
		for i, p := range probs {
			cum += p
			c.trans[t] = append(c.trans[t], successor{tok: perm[i], cum: cum})
		}
	}
	c.train = c.sample(rng, trainLen)
	c.valid = c.sample(rng, validLen)
	return c
}

func (c *Corpus) sample(rng *rand.Rand, n int) []int {
	out := make([]int, n)
	tok := rng.Intn(c.Vocab)
	for i := 0; i < n; i++ {
		out[i] = tok
		tok = c.Next(rng, tok)
	}
	return out
}

// Next samples a successor of tok from the language model.
func (c *Corpus) Next(rng *rand.Rand, tok int) int {
	r := rng.Float64()
	for _, s := range c.trans[tok] {
		if r <= s.cum {
			return s.tok
		}
	}
	return c.trans[tok][len(c.trans[tok])-1].tok
}

// Likely reports whether next is one of tok's plausible successors.
func (c *Corpus) Likely(tok, next int) bool {
	for _, s := range c.trans[tok] {
		if s.tok == next {
			return true
		}
	}
	return false
}

// WeakNext returns tok's least likely valid successor (the 5% branch): a
// chain-consistent but improbable continuation, which makes multiple-choice
// distractors that only a well-calibrated model can reject.
func (c *Corpus) WeakNext(tok int) int {
	best, bestP := c.trans[tok][0].tok, 1.1
	prev := 0.0
	for _, s := range c.trans[tok] {
		p := s.cum - prev
		prev = s.cum
		if p < bestP {
			best, bestP = s.tok, p
		}
	}
	return best
}

// Batch draws B random training windows of length T+1, returning model
// inputs (B×T) and flattened next-token targets (B·T).
func (c *Corpus) Batch(rng *rand.Rand, B, T int) ([][]int, []int) {
	return windows(c.train, rng, B, T)
}

// ValidBatches returns n deterministic validation batches.
func (c *Corpus) ValidBatches(n, B, T int) ([][][]int, [][]int) {
	rng := rand.New(rand.NewSource(12345))
	toks := make([][][]int, n)
	tgts := make([][]int, n)
	for i := 0; i < n; i++ {
		toks[i], tgts[i] = windows(c.valid, rng, B, T)
	}
	return toks, tgts
}

func windows(stream []int, rng *rand.Rand, B, T int) ([][]int, []int) {
	tokens := make([][]int, B)
	targets := make([]int, B*T)
	for b := 0; b < B; b++ {
		start := rng.Intn(len(stream) - T - 1)
		tokens[b] = stream[start : start+T]
		for t := 0; t < T; t++ {
			targets[b*T+t] = stream[start+t+1]
		}
	}
	return tokens, targets
}

// TrainTokens exposes the raw training stream (for sampling prompts).
func (c *Corpus) TrainTokens() []int { return c.train }
