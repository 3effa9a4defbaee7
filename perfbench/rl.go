package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fastrl/internal/core"
	"fastrl/internal/gpu"
	"fastrl/internal/reward"
	"fastrl/internal/sched"
	"fastrl/internal/workload"
)

// The RL workloads' shape: one 8×H100 node as four TP-2 rollout workers
// serving a Qwen-7B cost model, 32 prompts × GRPO group 8 per step, with
// responses capped at 384 tokens under the long-tail length prior. 64
// requests per worker is twice the SD threshold, so TLT decodes each step
// in vanilla mode and switches to elastic SD for the tail.
const (
	rlPrompts = 32
	rlGroup   = 8
	rlMaxNew  = 384
	// systemSeed initialises the policy and the system's sampling streams.
	// It is part of the system under test, not of the input: the workload
	// seed chooses the task pool, so runs over many seeds measure one
	// system on many inputs instead of many differently-initialised
	// policies (whose step times differ by 2× between seeds).
	systemSeed = 1
	// taskPool is the number of tasks the seed generates. It is large so
	// that a run's tasks sample the task distribution rather than a few
	// seed-specific tasks, which keeps per-seed work comparable.
	taskPool = 1024
	// warmPrompts/warmEpochs are the drafter warm-up of the examples.
	warmPrompts = 40
	warmEpochs  = 3
	// minEpisodes is the least number of episodes a run times; repeating
	// an episode is also the same-seed determinism check.
	minEpisodes = 2
	// minSetups is the least number of set-ups setup_s is the median of.
	minSetups = 3
	// rlCheckSteps steps are replayed at GOMAXPROCS=1 and compared.
	rlCheckSteps = 2
	// episodeSteps is the number of System.Step calls in one episode. The
	// timed phase repeats whole episodes from a fresh system, so every
	// repetition does identical work and virtual-clock metrics cover a
	// fixed window that does not depend on host speed.
	episodeSteps = 10
)

// rlCluster is one 8×H100 node split into four TP-2 rollout workers.
var rlCluster = core.DefaultCluster(gpu.H100, 1, 2)

// rlParams distinguishes the two RL workloads.
type rlParams struct {
	kind core.Kind
	// stepLimit is the step-wall limit slo_met_frac counts against, about
	// three times the median step on a 2-vCPU host: only a stalled step
	// misses it.
	stepLimit time.Duration
}

func newRLSystem(kind core.Kind, seed int64, sp *spans, id int64) (*core.System, time.Duration, error) {
	cfg := core.DefaultConfig()
	cfg.Kind = kind
	cfg.Cluster = rlCluster
	cfg.Arch = gpu.Qwen7B
	cfg.RL.PromptsPerStep = rlPrompts
	cfg.RL.GroupSize = rlGroup
	cfg.MaxNew = rlMaxNew
	cfg.Seed = systemSeed

	runtime.GC() // the previous episode's system is garbage; do not time its collection
	start := time.Now()
	sys, err := core.New(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("core.New: %w", err)
	}
	sys.Tasks = workload.NewTaskGen(sys.Tk, taskPool, seed)
	built := time.Now()
	sp.add(id, "core.New", start, built)
	sys.WarmUpDrafter(warmPrompts, warmEpochs)
	end := time.Now()
	sp.add(id, "core.WarmUpDrafter", built, end)
	return sys, end.Sub(start), nil
}

// stepRecord is one timed System.Step.
type stepRecord struct {
	wall  time.Duration
	cpu   time.Duration // process CPU, which excludes time the host stole
	stats core.StepStats
	// sum fingerprints every deterministic output of the step.
	sum uint64
}

// episode is one run of episodeSteps steps from a freshly built system.
type episode struct {
	steps []stepRecord
	// updates is the number of drafter versions spot training produced.
	updates int
}

func runEpisode(sys *core.System, steps int, sp *spans, id int64, prof *profiler) (episode, error) {
	var ep episode
	v0 := 0
	if sys.Eagle != nil {
		v0 = sys.Eagle.Version
	}
	prof.start()
	defer prof.stop()
	for i := 0; i < steps; i++ {
		cpu := processCPU()
		start := time.Now()
		st, err := sys.Step()
		end := time.Now()
		cpu = processCPU() - cpu
		if err != nil {
			return ep, fmt.Errorf("System.Step %d: %w", i+1, err)
		}
		sp.add(id, "core.System.Step", start, end)
		ep.steps = append(ep.steps, stepRecord{wall: end.Sub(start), cpu: cpu, stats: st, sum: stepChecksum(st)})
	}
	if sys.Eagle != nil {
		ep.updates = sys.Eagle.Version - v0
	}
	return ep, nil
}

// stepChecksum fingerprints a step's deterministic outputs: response
// lengths, learning statistics and virtual stage times. The response
// tokens themselves stay inside System.Step, which exposes only their
// lengths; reward, KL and accuracy are functions of them.
func stepChecksum(st core.StepStats) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, l := range st.RespLens {
		put(uint64(l))
	}
	for _, f := range st.WorkerFinish {
		put(uint64(f))
	}
	for _, d := range []time.Duration{st.Rollout, st.Inference, st.Training, st.Other, st.StepTime, st.SpotTime, st.IdleTime} {
		put(uint64(d))
	}
	for _, f := range []float64{st.Summary.MeanReward, st.Summary.MeanKL, st.Summary.Accuracy, st.AcceptLen} {
		put(math.Float64bits(f))
	}
	put(uint64(st.Tokens))
	put(uint64(st.SpotBatches))
	return h.Sum64()
}

// checkRLStep checks one step's outputs for internal consistency.
func checkRLStep(kind core.Kind, st core.StepStats) []string {
	var bad []string
	fail := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf("step %d: ", st.Step)+fmt.Sprintf(format, args...))
	}
	if n := len(st.RespLens); n != rlPrompts*rlGroup {
		fail("%d responses, want %d", n, rlPrompts*rlGroup)
	}
	var respTokens, maxLen int
	for i, l := range st.RespLens {
		if l < 1 || l > rlMaxNew {
			fail("response %d has %d tokens, outside [1, %d]", i, l, rlMaxNew)
		}
		respTokens += l
		maxLen = max(maxLen, l)
	}
	if prompt := st.Tokens - respTokens; prompt <= 0 || prompt%rlGroup != 0 {
		fail("%d prompt tokens is not a positive multiple of the group size %d", prompt, rlGroup)
	}
	if r := st.Summary.MeanReward; !(r >= 0 && r <= reward.CorrectReward+reward.FormatReward) {
		fail("mean reward %v outside [0, %v]", r, reward.CorrectReward+reward.FormatReward)
	}
	if a := st.Summary.Accuracy; !(a >= 0 && a <= 1) {
		fail("accuracy %v outside [0, 1]", a)
	}
	if st.Summary.MaxLen != maxLen {
		fail("summary max length %d, responses say %d", st.Summary.MaxLen, maxLen)
	}
	if n := len(st.RespLens); n > 0 && math.Abs(st.Summary.MeanLen-float64(respTokens)/float64(n)) > 1e-9 {
		fail("summary mean length %v, responses say %v", st.Summary.MeanLen, float64(respTokens)/float64(n))
	}
	if math.IsNaN(st.Summary.MeanKL) || math.IsInf(st.Summary.MeanKL, 0) {
		fail("KL %v is not finite", st.Summary.MeanKL)
	}
	if st.StepTime <= 0 || st.StepTime != st.Rollout+st.Inference+st.Training+st.Other {
		fail("step time %v is not the sum of its stages", st.StepTime)
	}
	var latest time.Duration
	for _, f := range st.WorkerFinish {
		latest = max(latest, f)
	}
	if workers := rlCluster.Workers(); len(st.WorkerFinish) != workers || latest != st.Rollout {
		fail("worker finishes %v do not end the %v rollout on %d workers", st.WorkerFinish, st.Rollout, workers)
	}
	switch kind {
	case core.VeRL:
		if st.AcceptLen != 0 || st.SpotBatches != 0 {
			fail("VeRL ran speculation (accept %v) or spot training (%d batches)", st.AcceptLen, st.SpotBatches)
		}
	case core.TLT:
		if st.AcceptLen < 1 {
			fail("TLT never speculated through the tail (accept length %v)", st.AcceptLen)
		}
	}
	return bad
}

// checkRepeat compares a repeated episode (or a prefix of one) against
// the reference step by step: same seed, same outputs.
func checkRepeat(what string, ref, got episode) []string {
	var bad []string
	for i, s := range got.steps {
		if i >= len(ref.steps) {
			break
		}
		if s.sum != ref.steps[i].sum {
			bad = append(bad, fmt.Sprintf("%s: step %d checksum %016x differs from the first episode's %016x", what, i+1, s.sum, ref.steps[i].sum))
		}
	}
	return bad
}

// episodeChecksum folds an episode's step checksums into one.
func episodeChecksum(ep episode) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range ep.steps {
		binary.LittleEndian.PutUint64(b[:], s.sum)
		h.Write(b[:])
	}
	return h.Sum64()
}

// checkAcrossRuns compares an episode checksum with the one an earlier run
// of the same binary recorded under dir for the same key (workload, seed
// and episode length), and records it when there is none. Keying by a
// hash of the executable means a rebuilt program starts a new record.
func checkAcrossRuns(dir, key string, sum uint64) ([]string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return nil, err
	}
	h := sha256.Sum256(bin)
	path := filepath.Join(dir, fmt.Sprintf("%s-%x", key, h[:8]))
	got := fmt.Sprintf("%016x", sum)
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != got {
			return []string{fmt.Sprintf("%s: checksum %s differs from %s, recorded by an earlier run of this binary", key, got, prev)}, nil
		}
		return nil, nil
	case errors.Is(err, fs.ErrNotExist):
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		return nil, os.WriteFile(path, []byte(got), 0o644)
	default:
		return nil, err
	}
}

func runRL(p rlParams, rc runConfig) *runOutput {
	out := newRunOutput()
	steps := episodeSteps
	if rc.episodeSteps > 0 {
		steps = rc.episodeSteps
	}

	var setups, bases, heapPeaks []float64
	var eps []episode
	snap := takeRuntimeSnapshot()
	start := time.Now()
	var lastEpisode time.Duration
	for len(eps) < minEpisodes || time.Since(start)+lastEpisode <= rc.seconds {
		epStart := time.Now()
		id := int64(len(eps)) << 32
		// An episode's heap is measured above what was live before its
		// system was built, so that memory earlier systems left behind
		// (core.retained_mb_per_system) does not grow with the episode count.
		base := liveHeapMB()
		heap := startHeapPeak()
		sys, setup, err := newRLSystem(p.kind, rc.seed, rc.spans, id)
		if err != nil {
			heap.Stop()
			out.problem("episode %d: %v", len(eps)+1, err)
			break
		}
		setups = append(setups, setup.Seconds())
		ep, err := runEpisode(sys, steps, rc.spans, id, rc.prof)
		liveHeapMB() // a final reading while the system is still live
		runtime.KeepAlive(sys)
		bases = append(bases, base)
		heapPeaks = append(heapPeaks, heap.Stop()-base)
		out.attempted += steps
		if err != nil {
			out.failed += steps - len(ep.steps)
			out.problem("episode %d: %v", len(eps)+1, err)
			break
		}
		for _, s := range ep.steps {
			if bad := checkRLStep(p.kind, s.stats); len(bad) > 0 {
				out.failed++
				out.problems = append(out.problems, bad...)
			}
		}
		if len(eps) > 0 {
			out.problems = append(out.problems, checkRepeat(fmt.Sprintf("episode %d", len(eps)+1), eps[0], ep)...)
		}
		eps = append(eps, ep)
		lastEpisode = time.Since(epStart)
	}
	use := runtimeSince(snap)
	for len(setups) < minSetups && len(eps) > 0 {
		_, setup, err := newRLSystem(p.kind, rc.seed, nil, 0)
		if err != nil {
			out.problem("set-up: %v", err)
			break
		}
		setups = append(setups, setup.Seconds())
	}
	if len(eps) == 0 {
		return out
	}

	if rc.stateDir != "" {
		key := fmt.Sprintf("%v-seed%d-steps%d", p.kind, rc.seed, steps)
		if bad, err := checkAcrossRuns(rc.stateDir, key, episodeChecksum(eps[0])); err != nil {
			out.problem("cross-run checksum: %v", err)
		} else {
			out.problems = append(out.problems, bad...)
		}
	}

	// Determinism across GOMAXPROCS: replay the first steps on one P.
	prev := runtime.GOMAXPROCS(1)
	if sys, _, err := newRLSystem(p.kind, rc.seed, nil, 0); err != nil {
		out.problem("GOMAXPROCS=1 replay: %v", err)
	} else if ep, err := runEpisode(sys, min(rlCheckSteps, steps), nil, 0, nil); err != nil {
		out.problem("GOMAXPROCS=1 replay: %v", err)
	} else {
		out.problems = append(out.problems, checkRepeat(fmt.Sprintf("GOMAXPROCS=1 vs %d", prev), eps[0], ep)...)
	}
	runtime.GOMAXPROCS(prev)

	var walls []float64
	var tokens int
	var wallSum, cpuSum time.Duration
	for _, ep := range eps {
		for _, s := range ep.steps {
			walls = append(walls, ms(s.wall))
			tokens += s.stats.Tokens
			wallSum += s.wall
			cpuSum += s.cpu
		}
	}
	met := 0
	for _, w := range walls {
		if w <= ms(p.stepLimit) {
			met++
		}
	}
	tailMs, tailPct := tail(walls)
	p50 := median(walls)

	// Virtual-clock and learning metrics cover the first episode: every
	// episode repeats it exactly (checked above).
	ref := eps[0]
	var refTokens, iters, sdIters, tokensOut, running int
	var stepTime, rollout, inference, training, other, idle, spotTime time.Duration
	var spotBatches int
	var finishes, rewards, kls, accepts, skews, respLens []float64
	respMax := 0
	for _, s := range ref.steps {
		st := s.stats
		refTokens += st.Tokens
		stepTime += st.StepTime
		rollout += st.Rollout
		inference += st.Inference
		training += st.Training
		other += st.Other
		idle += st.IdleTime
		spotTime += st.SpotTime
		spotBatches += st.SpotBatches
		rewards = append(rewards, st.Summary.MeanReward)
		kls = append(kls, st.Summary.MeanKL)
		if st.AcceptLen > 0 {
			accepts = append(accepts, st.AcceptLen)
		}
		var wf []float64
		for _, f := range st.WorkerFinish {
			wf = append(wf, ms(f))
		}
		finishes = append(finishes, wf...)
		if m := mean(wf); m > 0 {
			skews = append(skews, quantile(wf, 1)/m)
		}
		for _, l := range st.RespLens {
			respLens = append(respLens, float64(l))
			respMax = max(respMax, l)
		}
		for _, prof := range st.Profiles {
			for _, it := range prof {
				iters++
				if it.Mode == sched.ModeSD {
					sdIters++
				}
				tokensOut += it.TokensOut
				running += it.Running
			}
		}
	}

	out.e2e = map[string]float64{
		"setup_s":            median(setups),
		"wall_tok_per_s":     float64(tokens) / wallSum.Seconds(),
		"step_wall_ms_p50":   p50,
		"cpu_ms_per_op":      ms(cpuSum) / float64(len(walls)),
		"virt_tok_per_s":     float64(refTokens) / stepTime.Seconds(),
		"ttft_p50_ms":        p50,
		"ttft_tail_ms":       tailMs,
		"latency_p50_ms":     p50,
		"latency_tail_ms":    tailMs,
		"slo_met_frac":       float64(met) / float64(len(walls)),
		"decode_virt_ms_p50": median(finishes),
		"peak_heap_mb":       median(heapPeaks),
	}
	l := out.layer
	l["draft.updates"] = float64(ref.updates)
	l["spot.batches"] = float64(spotBatches)
	l["spot.virt_s"] = spotTime.Seconds()
	if spotTime+idle > 0 {
		l["spot.idle_used_frac"] = float64(spotTime) / float64(spotTime+idle)
	}
	l["specdec.accept_len"] = mean(accepts)
	l["sched.iters"] = float64(iters)
	if iters > 0 {
		l["sched.sd_iter_frac"] = float64(sdIters) / float64(iters)
		l["sched.tokens_per_iter"] = float64(tokensOut) / float64(iters)
		l["sched.running_mean"] = float64(running) / float64(iters)
	}
	l["rl.mean_reward"] = mean(rewards)
	l["rl.resp_len_mean"] = mean(respLens)
	l["rl.resp_len_max"] = float64(respMax)
	l["rl.kl_mean"] = mean(kls)
	l["core.rollout_virt_s"] = rollout.Seconds()
	l["core.inference_virt_s"] = inference.Seconds()
	l["core.training_virt_s"] = training.Seconds()
	l["core.other_virt_s"] = other.Seconds()
	l["core.idle_virt_s"] = idle.Seconds()
	l["core.worker_skew"] = mean(skews)
	if n := len(bases); n > 1 {
		l["core.retained_mb_per_system"] = (bases[n-1] - bases[0]) / float64(n-1)
	}
	l["runtime.alloc_mb"] = use.allocMB
	l["runtime.cpu_util"] = use.cpuUtil
	l["bench.tail_pct"] = tailPct
	l["bench.samples"] = float64(len(walls))

	out.unitCost = wallSum.Seconds() / float64(len(walls))
	out.notes = append(out.notes,
		fmt.Sprintf("%d episodes × %d steps; tails at p%g of %d steps", len(eps), steps, tailPct, len(walls)),
		fmt.Sprintf("first episode: virt_tok_per_s %.6g, mean_reward %.6g, checksum %016x",
			out.e2e["virt_tok_per_s"], l["rl.mean_reward"], episodeChecksum(ref)))
	return out
}
