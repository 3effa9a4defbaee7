package draft

import (
	"fastrl/internal/model"
)

// HarvestExamples recomputes drafter training examples from a finished (or
// partial) sequence, exactly as the RL inference stage does when it
// prefills responses through the target model: for every generated
// position it records the context, the target's hidden sketch, the
// target's next-token distribution, and the token actually produced.
//
// The harvest is a single pass with one target accumulation per position.
// The first sketch and the temperature-1 distribution come from the same
// logits, and the top-ranked tokens from that distribution. The second
// fused sketch covers the context one token shorter, which is the previous
// position's first sketch, so it is carried forward; only the first
// response position computes it directly (with an empty prompt it stays
// zero there).
//
// The target is only read, so concurrent calls are safe as long as no one
// updates the target meanwhile; each call borrows its own scratch.
//
// withDist controls whether the full target distribution is stored (needed
// by KD objectives; costs vocab floats per position).
func HarvestExamples(target *model.LM, seq model.Context, withDist bool) []*Example {
	n := len(seq.Tokens)
	if seq.PromptLen >= n {
		return nil
	}
	const dim = model.HiddenDim
	vocab := target.Config().Vocab
	sc := scratchPool.Get().(*model.Scratch)
	defer scratchPool.Put(sc)
	var probs []float32 // a fresh row per position when stored, else reused
	out := make([]*Example, 0, n-seq.PromptLen)
	var prev []float32 // the previous position's sketches
	for pos := seq.PromptLen; pos < n; pos++ {
		ctx := model.Context{Tokens: seq.Tokens[:pos], PromptLen: seq.PromptLen}
		// Two fused sketches cover both the Eagle (1 sketch) and Eagle-3
		// (2 sketches) drafter inputs.
		sketch := make([]float32, 2*dim)
		if probs == nil || withDist {
			probs = make([]float32, vocab)
		}
		target.HiddenProbsScratch(ctx, sketch[:dim], probs, sc)
		switch {
		case prev != nil:
			copy(sketch[dim:], prev[:dim])
		case pos > 0:
			short := model.Context{Tokens: seq.Tokens[:pos-1], PromptLen: seq.PromptLen}
			target.HiddenScratch(short, sketch[dim:], sc)
		}
		prev = sketch
		ex := &Example{
			Tokens:    seq.Tokens[:pos:pos],
			PromptLen: seq.PromptLen,
			Hidden:    &model.HiddenState{Sketch: sketch, TopTokens: model.TopK(probs, model.NumRankTokens)},
			TargetTok: seq.Tokens[pos],
			SeqLen:    n - seq.PromptLen,
		}
		if withDist {
			ex.Target = probs
		}
		out = append(out, ex)
	}
	return out
}
