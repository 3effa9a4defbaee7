package specdec

import (
	"math/rand"
	"testing"
)

// BenchmarkSpecRound is the canonical steady-state speculation round
// through Step: tree drafting, then verification that scores only the
// positions it visits.
func BenchmarkSpecRound(b *testing.B) {
	lm, e, tk := newSetup(b)
	eng := &Engine{Target: lm, Temp: 0.9, EosID: -1}
	p := Params{DraftDepth: 6, TopK: 6, TokensToVerify: 24}
	rng := rand.New(rand.NewSource(1))
	prompt := testPrompt(tk, rng)
	eng.Step(e, prompt, len(prompt), p, rng) // grow scratch outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step(e, prompt, len(prompt), p, rng)
	}
}

// BenchmarkSpecRoundSequential measures the StepSequential reference over
// the identical tree; it differs from BenchmarkSpecRound only by the
// StepBatch bookkeeping around the shared verifier.
func BenchmarkSpecRoundSequential(b *testing.B) {
	lm, e, tk := newSetup(b)
	eng := &Engine{Target: lm, Temp: 0.9, EosID: -1}
	p := Params{DraftDepth: 6, TopK: 6, TokensToVerify: 24}
	rng := rand.New(rand.NewSource(1))
	prompt := testPrompt(tk, rng)
	eng.StepSequential(e, prompt, len(prompt), p, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.StepSequential(e, prompt, len(prompt), p, rng)
	}
}

func BenchmarkSpecStepTree(b *testing.B) {
	lm, e, tk := newSetup(b)
	eng := &Engine{Target: lm, Temp: 0.9, EosID: -1}
	p := Params{DraftDepth: 6, TopK: 6, TokensToVerify: 24}
	rng := rand.New(rand.NewSource(1))
	prompt := testPrompt(tk, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step(e, prompt, len(prompt), p, rng)
	}
}

func BenchmarkSpecStepLinear(b *testing.B) {
	lm, e, tk := newSetup(b)
	eng := &Engine{Target: lm, Temp: 0.9, EosID: -1}
	p := Params{DraftDepth: 6, TopK: 1, TokensToVerify: 6}
	rng := rand.New(rand.NewSource(1))
	prompt := testPrompt(tk, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step(e, prompt, len(prompt), p, rng)
	}
}

func BenchmarkVanillaStep(b *testing.B) {
	lm, _, tk := newSetup(b)
	eng := &Engine{Target: lm, Temp: 0.9, EosID: -1}
	rng := rand.New(rand.NewSource(1))
	prompt := testPrompt(tk, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.VanillaStep(prompt, len(prompt), rng)
	}
}
