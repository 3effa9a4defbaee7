package specdec

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// forceGOMAXPROCS pins the scheduler width for the duration of one test
// so the pipeline gate (GOMAXPROCS > 1) takes a known branch regardless
// of the host's CPU count. Raising GOMAXPROCS above NumCPU is legal —
// on a single-CPU machine the pipeline then runs interleaved rather than
// parallel, which still exercises every handoff and ordering edge.
func forceGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestStepBatchPipelinedMatchesSerial pins the bit-identity of the
// software-pipelined round: StepBatch with overlapped draft/score/verify
// stages must emit, for every sequence, exactly the Result the serial
// loop produces — tokens, accept lengths, EOS flags and the drafting
// metadata. Per-sequence biases, EOS ids and RNGs exercise the grouped
// per-tree scoring path; multiple consecutive rounds on the same engines
// exercise scratch reuse across rounds.
func TestStepBatchPipelinedMatchesSerial(t *testing.T) {
	lm, e, tk := newSetup(t)
	metaRng := rand.New(rand.NewSource(91))
	forceGOMAXPROCS(t, 2)

	for trial := 0; trial < 25; trial++ {
		p := Params{
			DraftDepth:     1 + metaRng.Intn(8),
			TopK:           1 + metaRng.Intn(6),
			TokensToVerify: 1 + metaRng.Intn(32),
		}
		temp := 0.0
		if metaRng.Intn(3) > 0 {
			temp = 0.5 + metaRng.Float64()
		}
		n := 2 + metaRng.Intn(6)
		seqsA := make([]Seq, n)
		seqsB := make([]Seq, n)
		seeds := make([]int64, n)
		for i := 0; i < n; i++ {
			var bias map[int]float32
			if metaRng.Intn(2) == 0 {
				bias = map[int]float32{tk.Eos(): float32(metaRng.NormFloat64() * 3)}
			}
			eos := -1
			if metaRng.Intn(2) == 0 {
				eos = tk.Eos()
			}
			seeds[i] = metaRng.Int63()
			toks := testPrompt(tk, metaRng)
			seqsA[i] = Seq{Tokens: toks, PromptLen: len(toks), Bias: bias, EosID: eos}
			seqsB[i] = Seq{Tokens: append([]int(nil), toks...), PromptLen: len(toks), Bias: bias, EosID: eos}
		}

		serial := &Engine{Target: lm, Temp: temp}
		piped := &Engine{Target: lm, Temp: temp}
		outA := make([]Result, n)
		outB := make([]Result, n)
		rngsA := make([]*rand.Rand, n)
		rngsB := make([]*rand.Rand, n)
		for i := range seeds {
			rngsA[i] = rand.New(rand.NewSource(seeds[i]))
			rngsB[i] = rand.New(rand.NewSource(seeds[i]))
		}

		for round := 0; round < 3; round++ {
			runtime.GOMAXPROCS(1)
			serial.StepBatch(e, seqsA, p, rngsA, outA)
			runtime.GOMAXPROCS(2)
			piped.StepBatch(e, seqsB, p, rngsB, outB)

			for i := 0; i < n; i++ {
				a, b := &outA[i], &outB[i]
				if len(a.Tokens) != len(b.Tokens) {
					t.Fatalf("trial %d round %d seq %d (%+v temp=%.2f): serial %v vs pipelined %v",
						trial, round, i, p, temp, a.Tokens, b.Tokens)
				}
				for j := range a.Tokens {
					if a.Tokens[j] != b.Tokens[j] {
						t.Fatalf("trial %d round %d seq %d token %d: serial %v vs pipelined %v",
							trial, round, i, j, a.Tokens, b.Tokens)
					}
				}
				if a.AcceptLen != b.AcceptLen || a.Eos != b.Eos ||
					a.DraftedNodes != b.DraftedNodes || a.VerifiedTokens != b.VerifiedTokens {
					t.Fatalf("trial %d round %d seq %d: metadata diverged: %+v vs %+v",
						trial, round, i, *a, *b)
				}
				// Advance both copies for the next round (Result.Tokens
				// aliases engine scratch, so append copies).
				seqsA[i].Tokens = append(seqsA[i].Tokens, a.Tokens...)
				seqsB[i].Tokens = append(seqsB[i].Tokens, b.Tokens...)
			}
		}
	}
}

// TestStepBatchPipelinedSharedRNGMatchesSerial pins the trainer-side
// draw-order contract under pipelining: with one shared RNG in every
// slot, the verify worker must consume randomness in exactly the serial
// loop's sequence order.
func TestStepBatchPipelinedSharedRNGMatchesSerial(t *testing.T) {
	lm, e, tk := newSetup(t)
	metaRng := rand.New(rand.NewSource(93))
	p := Params{DraftDepth: 5, TopK: 4, TokensToVerify: 16}
	forceGOMAXPROCS(t, 2)

	for trial := 0; trial < 15; trial++ {
		n := 2 + metaRng.Intn(5)
		seqs := make([]Seq, n)
		for i := range seqs {
			toks := testPrompt(tk, metaRng)
			seqs[i] = Seq{Tokens: toks, PromptLen: len(toks), EosID: tk.Eos()}
		}
		seed := metaRng.Int63()

		run := func(maxprocs int, eng *Engine) [][]int {
			runtime.GOMAXPROCS(maxprocs)
			shared := rand.New(rand.NewSource(seed))
			rngs := make([]*rand.Rand, n)
			for i := range rngs {
				rngs[i] = shared
			}
			out := make([]Result, n)
			eng.StepBatch(e, seqs, p, rngs, out)
			got := make([][]int, n)
			for i := range out {
				got[i] = append([]int(nil), out[i].Tokens...)
			}
			return got
		}

		want := run(1, &Engine{Target: lm, Temp: 0.9})
		got := run(2, &Engine{Target: lm, Temp: 0.9})
		for i := 0; i < n; i++ {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("trial %d seq %d: serial %v vs pipelined %v", trial, i, want[i], got[i])
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("trial %d seq %d token %d: serial %v vs pipelined %v",
						trial, i, j, want[i], got[i])
				}
			}
		}
	}
}

// TestStepBatchPipelinedSteadyStateAllocs pins the allocation-free
// contract of the pipelined round. testing.AllocsPerRun cannot measure
// it (it pins GOMAXPROCS to 1, which routes StepBatch down the serial
// path), so this test counts mallocs directly around repeated rounds at
// a fixed workload. The stage workers and their channels are engine
// scratch created on first use; after warm-up a round must not allocate
// on any stage.
func TestStepBatchPipelinedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector's shadow bookkeeping allocates; alloc pin is meaningless under -race")
	}
	lm, e, tk := newSetup(t)
	forceGOMAXPROCS(t, 2)
	metaRng := rand.New(rand.NewSource(95))
	p := Params{DraftDepth: 6, TopK: 6, TokensToVerify: 24}
	const n = 8
	seqs := make([]Seq, n)
	rngs := make([]*rand.Rand, n)
	out := make([]Result, n)
	for i := 0; i < n; i++ {
		toks := testPrompt(tk, metaRng)
		seqs[i] = Seq{Tokens: toks, PromptLen: len(toks), EosID: -1}
		rngs[i] = rand.New(rand.NewSource(int64(300 + i)))
	}
	eng := &Engine{Target: lm, Temp: 0.9}
	// Scratch high-water marks (tree arenas, per-tree row buffers) ratchet
	// up while early rounds explore differently-shaped draft trees; warm
	// well past the ratchet before counting.
	for warm := 0; warm < 25; warm++ {
		eng.StepBatch(e, seqs, p, rngs, out)
	}

	const rounds = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		eng.StepBatch(e, seqs, p, rngs, out)
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.Mallocs-before.Mallocs) / rounds
	// A real leak allocates at least once per round (usually once per
	// sequence, so ≥ 8 here); the slack below that tolerates stray
	// runtime-internal allocations (goroutine stack growth, GC metadata)
	// and late high-water ratchets without masking any genuine leak.
	if perOp >= 1 {
		t.Errorf("pipelined steady-state StepBatch allocates %.2f objects/round, want ~0", perOp)
	}
}

// waitGoroutines polls until the process runs at most want goroutines; a
// stage worker that has signalled its exit may still be unwinding.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want at most %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseStopsPipeline pins the engine's Close: it stops both stage
// workers, is safe to call twice, is a no-op on an engine that never
// pipelined, and leaves later rounds bit-identical to the serial reference
// (the next pipelined round restarts the workers).
func TestCloseStopsPipeline(t *testing.T) {
	lm, e, tk := newSetup(t)
	forceGOMAXPROCS(t, 2)

	var never Engine
	never.Close()
	idle := &Engine{Target: lm, Temp: 0.9}
	idle.Step(e, testPrompt(tk, rand.New(rand.NewSource(1))), 5, Params{DraftDepth: 4, TopK: 2, TokensToVerify: 8}, rand.New(rand.NewSource(2)))
	if idle.sc == nil || idle.sc.pipeline != nil {
		t.Fatal("single-sequence round should leave scratch but no pipeline")
	}
	idle.Close()

	metaRng := rand.New(rand.NewSource(97))
	p := Params{DraftDepth: 5, TopK: 4, TokensToVerify: 16}
	const n = 4
	seqsA := make([]Seq, n)
	seqsB := make([]Seq, n)
	rngsA := make([]*rand.Rand, n)
	rngsB := make([]*rand.Rand, n)
	for i := 0; i < n; i++ {
		toks := testPrompt(tk, metaRng)
		seqsA[i] = Seq{Tokens: toks, PromptLen: len(toks), EosID: -1}
		seqsB[i] = Seq{Tokens: append([]int(nil), toks...), PromptLen: len(toks), EosID: -1}
		rngsA[i] = rand.New(rand.NewSource(int64(400 + i)))
		rngsB[i] = rand.New(rand.NewSource(int64(400 + i)))
	}
	outA := make([]Result, n)
	outB := make([]Result, n)
	closed := &Engine{Target: lm, Temp: 0.9}
	serial := &Engine{Target: lm, Temp: 0.9}

	base := runtime.NumGoroutine()
	for round := 0; round < 4; round++ {
		closed.StepBatch(e, seqsA, p, rngsA, outA)
		if got := runtime.NumGoroutine(); got < base+2 {
			t.Fatalf("round %d: %d goroutines, want the 2 stage workers above %d", round, got, base)
		}
		closed.Close()
		closed.Close()
		waitGoroutines(t, base)
		runtime.GOMAXPROCS(1)
		serial.StepBatch(e, seqsB, p, rngsB, outB)
		runtime.GOMAXPROCS(2)
		for i := 0; i < n; i++ {
			a, b := &outA[i], &outB[i]
			if !reflect.DeepEqual(a.Tokens, b.Tokens) || a.AcceptLen != b.AcceptLen || a.Eos != b.Eos ||
				a.DraftedNodes != b.DraftedNodes || a.VerifiedTokens != b.VerifiedTokens {
				t.Fatalf("round %d seq %d: closed engine %+v vs serial %+v", round, i, *a, *b)
			}
			seqsA[i].Tokens = append(seqsA[i].Tokens, a.Tokens...)
			seqsB[i].Tokens = append(seqsB[i].Tokens, b.Tokens...)
		}
	}
}
