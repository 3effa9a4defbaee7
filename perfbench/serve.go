package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"fastrl/internal/cachefabric"
	"fastrl/internal/cluster"
	"fastrl/internal/core"
	"fastrl/internal/gpu"
	"fastrl/internal/prefixcache"
	"fastrl/internal/rollout"
	"fastrl/internal/serving"
	"fastrl/internal/workload"
)

// The serve-mixed workload: open-loop Poisson arrivals at one fixed rate
// into a 2-shard × 1-replica cluster serving the warmed target and Eagle
// drafter with default SD and BEG-MAB settings, per-shard prefix caches,
// the cache fabric and fabric-aware routing.
const (
	serveShards = 2
	serveMaxNew = 128
	// serveRate is about a quarter of the rate this 2-shard cluster
	// saturates at on a 2-vCPU host (it sheds at 800 req/s). At half
	// saturation, co-batching makes the replica step time swing between
	// runs (latency_p50_ms spread 18% at 300 req/s, 33% at 400, against
	// 6% here), so the lighter load keeps the figures comparable.
	serveRate = 200.0
	// Half the prompts open with one of serveTemplates shared
	// serveTemplateLen-token templates; the other half are bare task
	// prompts, the in-workload control for prefix reuse.
	serveTemplates   = 8
	serveTemplateLen = 48
	// fabricTickEvery is the generator's FabricTick cadence.
	fabricTickEvery = 50 * time.Millisecond
	// The SLO limits slo_met_frac counts against, set so that the
	// unchanged program meets about 99% of requests on a 2-vCPU host.
	serveTTFTLimit    = 20 * time.Millisecond
	serveLatencyLimit = 30 * time.Millisecond
)

// newServeCluster builds the warmed TLT system (for its target and
// drafter) and the serving cluster over it.
func newServeCluster(seed int64, sp *spans, id int64) (*core.System, *cluster.Cluster, time.Duration, error) {
	sys, setup, err := newRLSystem(core.TLT, seed, sp, id)
	if err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	caches := cluster.NewShardCaches(serveShards, prefixcache.Config{JournalDepth: 256})
	cl, err := cluster.New(cluster.Config{
		Shards: serveShards,
		Shard: serving.Config{
			Engine:   rollout.DefaultConfig(gpu.NewDevice(gpu.H100, 2)),
			Replicas: 1,
			AnswerID: sys.Tk.Answer(),
			EosID:    sys.Tk.Eos(),
		},
		Caches: caches,
		// A nil Policy with a fabric resolves to fabric-aware routing.
		Fabric: &cachefabric.Config{},
	}, sys.Target, sys.Eagle)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("cluster.New: %w", err)
	}
	end := time.Now()
	sp.add(id, "cluster.New", start, end)
	return sys, cl, setup + end.Sub(start), nil
}

// serveRequest is one generated request.
type serveRequest struct {
	due    time.Duration // scheduled send offset
	task   workload.Task
	prompt []int
	req    cluster.Request
}

// makeServeRequests generates the open-loop trace: Poisson arrival times,
// task, length prior and sampling seed per request from
// workload.GenerateArrivals, and the template choice from the seed.
func makeServeRequests(sys *core.System, seed int64, d time.Duration) []serveRequest {
	rng := rand.New(rand.NewSource(seed ^ 0x5e7e))
	special := map[int]bool{sys.Tk.Eos(): true, sys.Tk.Answer(): true, sys.Tk.Pad(): true, sys.Tk.Bos(): true}
	templates := make([][]int, serveTemplates)
	for t := range templates {
		for len(templates[t]) < serveTemplateLen {
			if tok := rng.Intn(sys.Tk.VocabSize()); !special[tok] {
				templates[t] = append(templates[t], tok)
			}
		}
	}
	pool := sys.Tasks.Pool()
	arrivals := workload.GenerateArrivals(workload.ArrivalConfig{
		Duration:   d,
		RatePerSec: serveRate,
		Tasks:      len(pool),
		Lengths:    workload.DefaultLengthSampler(serveMaxNew),
		Seed:       seed ^ 0xa771,
	})
	out := make([]serveRequest, len(arrivals))
	for i, a := range arrivals {
		task := pool[a.Task]
		prompt := task.Prompt
		if a.Seed&1 == 1 {
			prompt = append(slices.Clone(templates[(uint64(a.Seed)>>1)%serveTemplates]), task.Prompt...)
		}
		out[i] = serveRequest{due: a.At, task: task, prompt: prompt, req: cluster.Request{
			Prompt: prompt,
			MaxNew: serveMaxNew,
			Prior:  workload.LengthPrior{TargetLen: a.TargetLen, Sharpness: 25},
			Seed:   a.Seed,
		}}
	}
	return out
}

// streamRecord is what the client saw of one request.
type streamRecord struct {
	shed bool
	// err is any failure other than a shed: a Stream error, a Recv error
	// or a terminal Usage.Err.
	err       error
	terminals int   // terminal events received
	chunks    []int // token chunks concatenated in arrival order
	usage     serving.Response
	// first and end are when the first token and the terminal event
	// reached the client; firstChunk is the first token event's size and
	// rounds the number of SD rounds (EventAccept) the request took.
	first, end time.Time
	firstChunk int
	rounds     int
	ttft       time.Duration // scheduled send → first EventTokens
	latency    time.Duration // scheduled send → terminal event
}

func (r *streamRecord) served() bool { return !r.shed && r.err == nil && r.terminals > 0 }

// decodeSteps is the number of replica steps the request took after the
// one that produced its first token: one per SD round, or one per token
// when it decoded without speculation.
func (r *streamRecord) decodeSteps() int {
	if r.rounds > 0 {
		return r.rounds - 1
	}
	return len(r.chunks) - r.firstChunk
}

// receive times one stream from its scheduled send time. It blocks in
// Recv for the first token and in Wait for the terminal event, then
// drains the rest of the stream without blocking. Two wake-ups per
// request, rather than one per chunk, keep hundreds of receiving
// goroutines from competing with the replica step loops for the cores on
// every chunk, which would put the client's own scheduling delay into
// every timing.
func receive(st *cluster.Stream, due, opened time.Time, rec *streamRecord, sp *spans, id int64) {
	record := func(ev serving.Event, now time.Time) {
		switch ev.Kind {
		case serving.EventTokens:
			if rec.first.IsZero() {
				rec.first, rec.firstChunk = now, len(ev.Tokens)
				sp.add(id, "serving.first_token", opened, now)
			}
			rec.chunks = append(rec.chunks, ev.Tokens...)
		case serving.EventAccept:
			rec.rounds++
		case serving.EventUsage:
			rec.terminals++
			rec.usage = ev.Usage
			if ev.Usage.Err != nil {
				rec.err = fmt.Errorf("terminal usage: %w", ev.Usage.Err)
			}
			if rec.end.IsZero() {
				rec.end = now
			}
		}
	}
	for rec.first.IsZero() && rec.terminals == 0 {
		ev, err := st.Recv()
		if err != nil {
			rec.err = fmt.Errorf("Recv: %w", err)
			return
		}
		record(ev, time.Now())
	}
	if rec.terminals == 0 {
		_, _ = st.Wait() // its error is the terminal event's, recorded below
		rec.end = time.Now()
	}
	for {
		ev, err := st.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			rec.err = fmt.Errorf("Recv: %w", err)
			break
		}
		record(ev, rec.end)
	}
	rec.ttft = rec.first.Sub(due)
	rec.latency = rec.end.Sub(due)
	sp.add(id, "serving.stream", opened, rec.end)
}

// serveCounts is the cluster's own accounting after the run.
type serveCounts struct {
	served, shed, errored, cancelled, dups int
}

// checkServe checks the run structurally (see the package doc for why
// serving has no token checksum): every sent request is accounted for
// exactly once, client and cluster agree on the counts, nothing was
// delivered twice, each stream's chunks concatenate to its terminal
// response, responses are well-formed, and the only error is a typed
// shed.
func checkServe(reqs []serveRequest, recs []streamRecord, cc serveCounts, vocab, eos int) []string {
	var bad []string
	if len(recs) != len(reqs) {
		bad = append(bad, fmt.Sprintf("%d requests sent but %d recorded", len(reqs), len(recs)))
	}
	var served, shed, errored int
	for i := range recs {
		r := &recs[i]
		switch {
		case r.shed:
			shed++
			continue
		case r.err != nil:
			errored++
			bad = append(bad, fmt.Sprintf("request %d: %v", i, r.err))
			continue
		case r.terminals != 1:
			bad = append(bad, fmt.Sprintf("request %d: %d terminal events", i, r.terminals))
			continue
		}
		served++
		toks := r.usage.Tokens
		if !slices.Equal(r.chunks, toks) {
			bad = append(bad, fmt.Sprintf("request %d: %d streamed tokens do not concatenate to the %d-token response", i, len(r.chunks), len(toks)))
		}
		for _, t := range toks {
			if t < 0 || t >= vocab {
				bad = append(bad, fmt.Sprintf("request %d: token %d outside the vocabulary", i, t))
				break
			}
		}
		if n := len(toks); n == 0 || n > serveMaxNew || (n < serveMaxNew && toks[n-1] != eos) {
			bad = append(bad, fmt.Sprintf("request %d: %d tokens neither end in EOS nor stop at the %d-token cap", i, n, serveMaxNew))
		}
	}
	if sent := len(reqs); sent != served+shed+errored {
		bad = append(bad, fmt.Sprintf("sent %d != served %d + shed %d + errored %d", sent, served, shed, errored))
	}
	if cc.served != served || cc.shed != shed || cc.errored != errored || cc.cancelled != 0 {
		bad = append(bad, fmt.Sprintf("cluster counts served %d shed %d errored %d cancelled %d, client saw %d/%d/%d/0",
			cc.served, cc.shed, cc.errored, cc.cancelled, served, shed, errored))
	}
	if cc.dups != 0 {
		bad = append(bad, fmt.Sprintf("%d duplicate deliveries", cc.dups))
	}
	return bad
}

// serveRun is one open-loop pass: the trace, what the client saw of each
// request, and the cluster's accounting afterwards.
type serveRun struct {
	sys    *core.System
	reqs   []serveRequest
	recs   []streamRecord
	setups []float64
	start  time.Time
	// lags, opens and ticks are the generator's lateness (ms), the wall
	// time of each Cluster.Stream call (µs) and of each FabricTick (µs).
	lags, opens, ticks []float64
	stats              cluster.Stats
	iters              int64 // replica step-loop iterations
	hits, lookups      int64 // prefix-cache lookups
	replicated         int64 // fabric replications applied
	peakMB             float64
	use                runtimeUse
}

func (r *serveRun) counts() serveCounts {
	return serveCounts{served: r.stats.Served, shed: r.stats.Shed, errored: r.stats.Errored,
		cancelled: r.stats.Cancelled, dups: r.stats.DuplicateDeliveries}
}

// serveOnce builds the cluster minSetups times (keeping the last), then
// sends the generated trace open-loop: each request at its due time,
// FabricTick every fabricTickEvery, one receiving goroutine per admitted
// stream. It returns once every stream has ended and the cluster stopped.
func serveOnce(rc runConfig) (*serveRun, error) {
	run := &serveRun{}
	var cl *cluster.Cluster
	var base float64
	for i := 0; i < minSetups; i++ {
		if cl != nil {
			cl.Stop()
			run.sys, cl = nil, nil
		}
		base = liveHeapMB()
		s, c, setup, err := newServeCluster(rc.seed, rc.spans, int64(i)<<32)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		run.setups = append(run.setups, setup.Seconds())
		run.sys, cl = s, c
	}
	defer cl.Stop()
	run.reqs = makeServeRequests(run.sys, rc.seed, rc.seconds)
	run.recs = make([]streamRecord, len(run.reqs))
	runtime.GC()

	var wg sync.WaitGroup
	nextTick := fabricTickEvery
	snap := takeRuntimeSnapshot()
	heap := startHeapPeak()
	rc.prof.start()
	run.start = time.Now()
	for i := range run.reqs {
		r := &run.reqs[i]
		for nextTick <= r.due {
			time.Sleep(time.Until(run.start.Add(nextTick)))
			t0 := time.Now()
			cl.FabricTick()
			t1 := time.Now()
			rc.spans.add(-1, "cluster.FabricTick", t0, t1)
			run.ticks = append(run.ticks, float64(t1.Sub(t0).Nanoseconds())/1e3)
			nextTick += fabricTickEvery
		}
		due := run.start.Add(r.due)
		time.Sleep(time.Until(due))
		opened := time.Now()
		run.lags = append(run.lags, ms(opened.Sub(due)))
		st, err := cl.Stream(context.Background(), r.req)
		t1 := time.Now()
		run.opens = append(run.opens, float64(t1.Sub(opened).Nanoseconds())/1e3)
		rc.spans.add(int64(i), "cluster.Stream", opened, t1)
		if err != nil {
			var shed *cluster.ErrShedded
			if errors.As(err, &shed) {
				run.recs[i].shed = true
			} else {
				run.recs[i].err = fmt.Errorf("Stream: %w", err)
			}
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			receive(st, due, opened, &run.recs[i], rc.spans, int64(i))
		}(i)
	}
	wg.Wait()
	rc.prof.stop()
	run.use = runtimeSince(snap)
	liveHeapMB() // a final reading while the cluster is still live
	run.peakMB = heap.Stop() - base

	run.stats = cl.Stats()
	for i := 0; i < serveShards; i++ {
		run.iters += cl.ShardServer(i).StepCount()
		st := cl.ShardServer(i).Cache().Stats()
		run.hits += st.Hits
		run.lookups += st.Lookups
	}
	_, run.replicated, _ = cl.Fabric().Counters()
	return run, nil
}

func runServe(rc runConfig) *runOutput {
	out := newRunOutput()
	run, err := serveOnce(rc)
	if err != nil {
		out.problem("%v", err)
		return out
	}
	reqs, recs, cs := run.reqs, run.recs, run.stats
	out.attempted = len(reqs)
	out.problems = append(out.problems, checkServe(reqs, recs, run.counts(), run.sys.Tk.VocabSize(), run.sys.Tk.Eos())...)

	var ttfts, lats, stepWalls, itls, decodes []float64
	var tokens, respTokens, met, shed int
	var promptPositions int64
	var decodeSum time.Duration
	var rewardSum float64
	var last time.Time
	for i := range recs {
		r := &recs[i]
		if r.shed {
			shed++
		} else if r.err == nil {
			promptPositions += int64(len(reqs[i].prompt))
		}
		if !r.served() {
			out.failed++
			continue
		}
		ttfts = append(ttfts, ms(r.ttft))
		lats = append(lats, ms(r.latency))
		if n := r.decodeSteps(); n > 0 {
			stepWalls = append(stepWalls, ms(r.end.Sub(r.first))/float64(n))
		}
		if n := len(r.chunks) - r.firstChunk; n > 0 {
			itls = append(itls, ms(r.end.Sub(r.first))/float64(n))
		}
		decodes = append(decodes, ms(r.usage.DecodeTime))
		decodeSum += r.usage.DecodeTime
		n := len(r.usage.Tokens)
		respTokens += n
		tokens += n + len(reqs[i].prompt)
		rewardSum += run.sys.Verifier.Score(reqs[i].task, r.usage.Tokens)
		if r.ttft <= serveTTFTLimit && r.latency <= serveLatencyLimit {
			met++
		}
		if r.end.After(last) {
			last = r.end
		}
	}
	served := len(ttfts)
	if served == 0 {
		out.problem("no request was served")
		return out
	}
	ttftTail, tailPct := tail(ttfts)
	latTail, _ := tail(lats)
	p50TTFT := median(ttfts)
	out.e2e = map[string]float64{
		"setup_s":            median(run.setups),
		"wall_tok_per_s":     float64(tokens) / last.Sub(run.start).Seconds(),
		"step_wall_ms_p50":   median(stepWalls),
		"cpu_ms_per_op":      ms(run.use.procCPU) / float64(served),
		"virt_tok_per_s":     float64(respTokens) / decodeSum.Seconds(),
		"ttft_p50_ms":        p50TTFT,
		"ttft_tail_ms":       ttftTail,
		"latency_p50_ms":     median(lats),
		"latency_tail_ms":    latTail,
		"slo_met_frac":       float64(met) / float64(len(reqs)),
		"decode_virt_ms_p50": median(decodes),
		"peak_heap_mb":       run.peakMB,
	}

	var maxServed, sumServed float64
	for _, sh := range cs.Shards {
		maxServed = max(maxServed, float64(sh.Served))
		sumServed += float64(sh.Served)
	}
	lagMs := quantile(run.lags, 1)
	l := out.layer
	l["specdec.accept_len"] = cs.MeanAcceptLen
	l["sched.iters"] = float64(run.iters)
	if run.iters > 0 {
		l["sched.tokens_per_iter"] = float64(respTokens) / float64(run.iters)
	}
	l["serving.stream_open_us_p50"] = median(run.opens)
	l["serving.itl_wall_ms_p50"] = median(itls)
	l["serving.mean_reward"] = rewardSum / float64(served)
	l["cluster.load_ratio"] = maxServed / (sumServed / float64(len(cs.Shards)))
	l["cluster.shed"] = float64(shed)
	l["cluster.dup_deliveries"] = float64(cs.DuplicateDeliveries)
	if run.lookups > 0 {
		l["prefixcache.hit_frac"] = float64(run.hits) / float64(run.lookups)
	}
	if promptPositions > 0 {
		l["prefixcache.saved_prefill_frac"] = float64(cs.CacheSavedPositions) / float64(promptPositions)
	}
	l["cachefabric.replications"] = float64(run.replicated)
	l["cachefabric.tick_us_p50"] = median(run.ticks)
	l["runtime.alloc_mb"] = run.use.allocMB
	l["runtime.cpu_util"] = run.use.cpuUtil
	l["bench.gen_lag_ms_max"] = lagMs
	l["bench.tail_pct"] = tailPct
	l["bench.samples"] = float64(served)
	if lagMs > p50TTFT/10 {
		l["bench.harness_bound"] = 1
		out.notes = append(out.notes, fmt.Sprintf("WARNING: the generator ran up to %.3f ms late, over a tenth of ttft_p50_ms (%.3f ms): this run measures the harness, not the program", lagMs, p50TTFT))
	}
	out.unitCost = run.use.procCPU.Seconds() / float64(len(reqs))
	out.notes = append(out.notes, fmt.Sprintf("%d sent at %.0f req/s, %d served, %d shed; tails at p%g of %d requests; generator lag p50 %.3f p99 %.3f max %.3f ms",
		len(reqs), serveRate, served, shed, tailPct, served, median(run.lags), quantile(run.lags, 0.99), lagMs))
	return out
}
