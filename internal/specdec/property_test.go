package specdec

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// TestStepStructuralInvariants drives random strategies through the
// speculation engine and checks structural invariants of every round:
//   - at least one token is always emitted
//   - the accepted count never exceeds the drafted depth
//   - drafted nodes respect the beam bound depth*topK
//   - verified tokens respect TokensToVerify+1
//   - no token follows an EOS
func TestStepStructuralInvariants(t *testing.T) {
	lm, e, tk := newSetup(t)
	rng := rand.New(rand.NewSource(31))
	eng := &Engine{Target: lm, Temp: 0.9, EosID: tk.Eos()}
	for trial := 0; trial < 300; trial++ {
		p := Params{
			DraftDepth:     1 + rng.Intn(12),
			TopK:           1 + rng.Intn(8),
			TokensToVerify: 1 + rng.Intn(64),
		}
		prompt := testPrompt(tk, rng)
		seq := append([]int(nil), prompt...)
		res := eng.Step(e, seq, len(prompt), p, rng)

		if len(res.Tokens) == 0 {
			t.Fatalf("trial %d (%+v): no tokens emitted", trial, p)
		}
		if res.AcceptLen > p.DraftDepth {
			t.Fatalf("trial %d (%+v): accepted %d > depth", trial, p, res.AcceptLen)
		}
		if res.AcceptLen > len(res.Tokens) {
			t.Fatalf("trial %d (%+v): accept len %d > emitted %d", trial, p, res.AcceptLen, len(res.Tokens))
		}
		if res.DraftedNodes > p.DraftDepth*p.TopK {
			t.Fatalf("trial %d (%+v): drafted %d nodes", trial, p, res.DraftedNodes)
		}
		if res.VerifiedTokens > p.TokensToVerify+1 {
			t.Fatalf("trial %d (%+v): verified %d tokens", trial, p, res.VerifiedTokens)
		}
		for i, tok := range res.Tokens {
			if tok < 0 || tok >= tk.VocabSize() {
				t.Fatalf("trial %d: invalid token %d", trial, tok)
			}
			if tok == tk.Eos() && i != len(res.Tokens)-1 {
				t.Fatalf("trial %d: token after EOS: %v", trial, res.Tokens)
			}
		}
		if len(res.FrontierPerDepth) > p.DraftDepth {
			t.Fatalf("trial %d: frontier depth %d", trial, len(res.FrontierPerDepth))
		}
		for _, w := range res.FrontierPerDepth {
			if w < 1 || w > p.TopK {
				t.Fatalf("trial %d: frontier width %d outside [1,%d]", trial, w, p.TopK)
			}
		}
	}
}

// TestSelectNodesAncestryClosure exercises the tree-selection helper on
// random trees: every selected node's ancestors must also be selected and
// the budget respected.
func TestSelectNodesAncestryClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(60)
		nodes := make([]node, n)
		for i := range nodes {
			parent := -1
			if i > 0 && rng.Float64() < 0.8 {
				parent = rng.Intn(i)
			}
			pp := 1.0
			if parent >= 0 {
				pp = nodes[parent].pathProb
			}
			nodes[i] = node{
				tok:      rng.Intn(50),
				parent:   parent,
				pathProb: pp * (0.1 + 0.9*rng.Float64()),
			}
		}
		k := 1 + rng.Intn(20)
		keep := selectNodes(nodes, k)
		if len(keep) > k {
			t.Fatalf("trial %d: selected %d > budget %d", trial, len(keep), k)
		}
		chosen := map[int]bool{}
		for _, ni := range keep {
			chosen[ni] = true
		}
		for _, ni := range keep {
			for p := nodes[ni].parent; p >= 0; p = nodes[p].parent {
				if !chosen[p] {
					t.Fatalf("trial %d: node %d selected without ancestor %d", trial, ni, p)
				}
			}
		}
	}
}

// TestVerifyNodeMarginalProperty: for a random distribution p and random
// candidate sets, the empirical accept+corrective marginal must match p.
func TestVerifyNodeMarginalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	const vocab = 12
	for trial := 0; trial < 10; trial++ {
		// Random peaked distribution.
		base := make([]float32, vocab)
		var sum float32
		for v := range base {
			base[v] = float32(rng.ExpFloat64())
			sum += base[v]
		}
		for v := range base {
			base[v] /= sum
		}
		// Random distinct candidates.
		k := 1 + rng.Intn(4)
		perm := rng.Perm(vocab)[:k]
		nodes := make([]node, k)
		cands := make([]int, k)
		for i, tok := range perm {
			nodes[i] = node{tok: tok, qProb: rng.Float64()}
			cands[i] = i
		}
		const n = 60000
		counts := make([]int, vocab)
		for i := 0; i < n; i++ {
			p := append([]float32(nil), base...)
			chosen, corrective := verifyNode(p, nodes, cands, rng)
			if chosen >= 0 {
				counts[nodes[chosen].tok]++
			} else {
				counts[corrective]++
			}
		}
		for v := 0; v < vocab; v++ {
			got := float64(counts[v]) / n
			want := float64(base[v])
			if want > 0.01 && absF(got-want) > 0.15*want+0.005 {
				t.Fatalf("trial %d: token %d marginal %.4f, want %.4f", trial, v, got, want)
			}
		}
	}
}

// TestBatchedMatchesSequential: Step (the 1-sequence StepBatch) must be
// token-for-token identical to the StepSequential reference under fixed
// seeds, across random strategies, prompts, temperatures and biases. Two
// engines are used so each keeps its own scratch; their RNGs start from
// the same seed each trial.
//
// Both sides share one verifier, so the equality alone cannot catch a
// change to what that verifier emits. The FNV-64 checksum over every
// token the lattice emits can: latticeChecksum was recorded from the
// eager verifier, which scored every kept node in one batched pass
// before walking the tree, and the lazy verifier must reproduce it.
func TestBatchedMatchesSequential(t *testing.T) {
	const latticeChecksum = 0x6e20c58bd17b4ba8
	lm, e, tk := newSetup(t)
	metaRng := rand.New(rand.NewSource(51))
	sum := fnv.New64a()
	var word [8]byte
	for trial := 0; trial < 400; trial++ {
		p := Params{
			DraftDepth:     1 + metaRng.Intn(10),
			TopK:           1 + metaRng.Intn(6),
			TokensToVerify: 1 + metaRng.Intn(48),
		}
		temp := 0.0
		if metaRng.Intn(3) > 0 {
			temp = 0.5 + metaRng.Float64()
		}
		var bias map[int]float32
		if metaRng.Intn(3) == 0 {
			bias = map[int]float32{
				tk.Eos():  float32(metaRng.NormFloat64() * 3),
				tk.Wait(): float32(metaRng.NormFloat64() * 3),
			}
		}
		prompt := testPrompt(tk, metaRng)
		seed := metaRng.Int63()

		batched := &Engine{Target: lm, Temp: temp, Bias: bias, EosID: tk.Eos()}
		sequential := &Engine{Target: lm, Temp: temp, Bias: bias, EosID: tk.Eos()}
		// Multi-round: carry each path's own sequence forward so any
		// divergence compounds and is caught.
		bSeq := append([]int(nil), prompt...)
		sSeq := append([]int(nil), prompt...)
		bRng := rand.New(rand.NewSource(seed))
		sRng := rand.New(rand.NewSource(seed))
		for round := 0; round < 4; round++ {
			br := batched.Step(e, bSeq, len(prompt), p, bRng)
			sr := sequential.StepSequential(e, sSeq, len(prompt), p, sRng)
			if len(br.Tokens) != len(sr.Tokens) {
				t.Fatalf("trial %d round %d (%+v temp=%.2f): batched %v vs sequential %v",
					trial, round, p, temp, br.Tokens, sr.Tokens)
			}
			for i := range br.Tokens {
				if br.Tokens[i] != sr.Tokens[i] {
					t.Fatalf("trial %d round %d (%+v temp=%.2f): token %d differs: %v vs %v",
						trial, round, p, temp, i, br.Tokens, sr.Tokens)
				}
			}
			if br.AcceptLen != sr.AcceptLen || br.Eos != sr.Eos ||
				br.DraftedNodes != sr.DraftedNodes || br.VerifiedTokens != sr.VerifiedTokens {
				t.Fatalf("trial %d round %d: result metadata diverged: %+v vs %+v", trial, round, br, sr)
			}
			for _, tok := range br.Tokens {
				for b := range word {
					word[b] = byte(uint64(tok) >> (8 * b))
				}
				sum.Write(word[:])
			}
			bSeq = append(bSeq, br.Tokens...)
			sSeq = append(sSeq, sr.Tokens...)
			if br.Eos {
				break
			}
		}
	}
	if got := sum.Sum64(); got != latticeChecksum {
		t.Fatalf("lattice token checksum %#x, want %#x", got, uint64(latticeChecksum))
	}
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
