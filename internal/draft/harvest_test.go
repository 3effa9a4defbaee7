package draft

import (
	"math"
	"math/rand"
	"testing"

	"fastrl/internal/model"
)

// harvestPerPosition is the per-position harvest HarvestExamples replaced,
// kept as its test oracle: every position scores its context from scratch
// for each fused sketch, again for the top-ranked tokens, and once more
// for the stored distribution.
func harvestPerPosition(target *model.LM, seq model.Context, withDist bool) []*Example {
	n := len(seq.Tokens)
	if seq.PromptLen >= n {
		return nil
	}
	const dim = model.HiddenDim
	vocab := target.Config().Vocab
	var out []*Example
	for pos := seq.PromptLen; pos < n; pos++ {
		ctx := model.Context{Tokens: seq.Tokens[:pos], PromptLen: seq.PromptLen}
		hidden := &model.HiddenState{Sketch: make([]float32, 2*dim)}
		for s := 0; s < 2 && s <= pos; s++ {
			sub := model.Context{Tokens: seq.Tokens[:pos-s], PromptLen: seq.PromptLen}
			target.Hidden(sub, hidden.Sketch[s*dim:(s+1)*dim])
		}
		probs := make([]float32, vocab)
		target.Probs(ctx, nil, 1, probs)
		hidden.TopTokens = model.TopK(probs, model.NumRankTokens)
		ex := &Example{
			Tokens:    seq.Tokens[:pos:pos],
			PromptLen: seq.PromptLen,
			Hidden:    hidden,
			TargetTok: seq.Tokens[pos],
			SeqLen:    n - seq.PromptLen,
		}
		if withDist {
			dist := make([]float32, vocab)
			target.Probs(ctx, nil, 1, dist)
			ex.Target = dist
		}
		out = append(out, ex)
	}
	return out
}

// TestHarvestMatchesPerPosition: the single-pass harvest must reproduce the
// per-position oracle bit for bit over random sequences, including an
// empty prompt, an empty response and one-token sequences.
func TestHarvestMatchesPerPosition(t *testing.T) {
	lm, tk := newTarget(t)
	vocab := tk.VocabSize()
	rng := rand.New(rand.NewSource(21))
	type tc struct {
		seq      model.Context
		withDist bool
	}
	var cases []tc
	random := func(n int) []int {
		toks := make([]int, n)
		for i := range toks {
			toks[i] = rng.Intn(vocab)
		}
		return toks
	}
	for _, withDist := range []bool{false, true} {
		cases = append(cases,
			tc{model.Context{Tokens: random(1), PromptLen: 0}, withDist},
			tc{model.Context{Tokens: random(1), PromptLen: 1}, withDist},
			tc{model.Context{Tokens: random(9), PromptLen: 0}, withDist},
			tc{model.Context{Tokens: random(9), PromptLen: 9}, withDist},
			tc{model.Context{Tokens: random(9), PromptLen: 8}, withDist},
		)
	}
	for i := 0; i < 60; i++ {
		toks := random(1 + rng.Intn(40))
		cases = append(cases, tc{model.Context{Tokens: toks, PromptLen: rng.Intn(len(toks) + 1)}, i%2 == 0})
	}
	for ci, c := range cases {
		got := HarvestExamples(lm, c.seq, c.withDist)
		want := harvestPerPosition(lm, c.seq, c.withDist)
		if len(got) != len(want) || (got == nil) != (want == nil) {
			t.Fatalf("case %d: %d examples, want %d", ci, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if !sameInts(g.Tokens, w.Tokens) || g.PromptLen != w.PromptLen ||
				g.TargetTok != w.TargetTok || g.SeqLen != w.SeqLen {
				t.Fatalf("case %d example %d: got %+v, want %+v", ci, i, g, w)
			}
			if !sameInts(g.Hidden.TopTokens, w.Hidden.TopTokens) {
				t.Fatalf("case %d example %d: top tokens %v, want %v", ci, i, g.Hidden.TopTokens, w.Hidden.TopTokens)
			}
			if k := diffBits(g.Hidden.Sketch, w.Hidden.Sketch); k >= 0 {
				t.Fatalf("case %d example %d: sketch differs at %d", ci, i, k)
			}
			if (g.Target == nil) != (w.Target == nil) {
				t.Fatalf("case %d example %d: distribution presence differs", ci, i)
			}
			if k := diffBits(g.Target, w.Target); k >= 0 {
				t.Fatalf("case %d example %d: distribution differs at %d", ci, i, k)
			}
		}
	}
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffBits returns the first index where a and b differ bitwise, or -1.
func diffBits(a, b []float32) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}
