package data

import (
	"math/rand"
	"testing"
)

func TestCorpusShapes(t *testing.T) {
	c := NewCorpus(1, 64, 10000, 2000)
	if len(c.TrainTokens()) != 10000 {
		t.Fatalf("train len %d", len(c.TrainTokens()))
	}
	rng := rand.New(rand.NewSource(2))
	toks, tgts := c.Batch(rng, 4, 16)
	if len(toks) != 4 || len(toks[0]) != 16 || len(tgts) != 64 {
		t.Fatalf("batch shapes wrong: %d %d %d", len(toks), len(toks[0]), len(tgts))
	}
	// Targets are the shifted inputs.
	for b := 0; b < 4; b++ {
		for i := 0; i+1 < 16; i++ {
			if tgts[b*16+i] != toks[b][i+1] {
				t.Fatalf("target misaligned at b=%d i=%d", b, i)
			}
		}
	}
}

func TestTransitionsAreSparse(t *testing.T) {
	c := NewCorpus(3, 64, 20000, 100)
	// Every consecutive pair in the stream must be a "likely" transition.
	s := c.TrainTokens()
	for i := 0; i+1 < len(s); i++ {
		if !c.Likely(s[i], s[i+1]) {
			t.Fatalf("stream contains unlikely transition at %d: %d->%d", i, s[i], s[i+1])
		}
	}
}

func TestValidBatchesDeterministic(t *testing.T) {
	c := NewCorpus(6, 64, 5000, 2000)
	a1, t1 := c.ValidBatches(3, 2, 8)
	a2, t2 := c.ValidBatches(3, 2, 8)
	for i := range a1 {
		for b := range a1[i] {
			for j := range a1[i][b] {
				if a1[i][b][j] != a2[i][b][j] {
					t.Fatal("validation batches nondeterministic")
				}
			}
		}
		for j := range t1[i] {
			if t1[i][j] != t2[i][j] {
				t.Fatal("validation targets nondeterministic")
			}
		}
	}
}

func TestCorpusEntropyBelowUniform(t *testing.T) {
	// Count bigram frequencies: a 4-successor language must concentrate
	// mass, so each token is followed by ≤4 distinct tokens.
	c := NewCorpus(7, 16, 50000, 100)
	seen := map[[2]int]bool{}
	s := c.TrainTokens()
	for i := 0; i+1 < len(s); i++ {
		seen[[2]int{s[i], s[i+1]}] = true
	}
	perTok := map[int]int{}
	for k := range seen {
		perTok[k[0]]++
	}
	for tok, n := range perTok {
		if n > 4 {
			t.Fatalf("token %d has %d successors, want ≤4", tok, n)
		}
	}
}
