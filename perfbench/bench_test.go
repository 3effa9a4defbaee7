package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"fastrl/internal/core"
)

// benchmarkJSON mirrors the fields of ../BENCHMARK.json the tests compare.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func mustCatalogue(t *testing.T) *catalogue {
	t.Helper()
	cat, err := loadCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json, layers.json and
// the workload table in agreement.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	cat := mustCatalogue(t)
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	type metricKey struct {
		Name, Unit, Better string
		Bound              float64
	}
	strip := func(ds []metricDef) []metricKey {
		out := make([]metricKey, len(ds))
		for i, d := range ds {
			out[i] = metricKey{d.Name, d.Unit, d.Better, d.Bound}
		}
		return out
	}
	perLayer := strip(cat.perLayer())
	for i := range perLayer {
		perLayer[i].Bound = 0
	}
	if got, want := strip(bj.EndToEnd), strip(cat.EndToEnd); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json end_to_end\n%v\nlayers.json\n%v", got, want)
	}
	if got := strip(bj.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer\n%v\nlayers.json\n%v", got, perLayer)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var known []string
	for n := range workloads {
		known = append(known, n)
	}
	sort.Strings(names)
	sort.Strings(known)
	if !slices.Equal(names, known) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, known)
	}

	e2e := map[string]bool{}
	for _, d := range cat.EndToEnd {
		e2e[d.Name] = true
	}
	for _, l := range cat.Layers {
		for _, m := range l.Moves {
			if !e2e[m] {
				t.Errorf("layer %s moves unknown metric %s", l.Module, m)
			}
		}
		for _, w := range append(slices.Clone(l.Heavy), l.Bypass...) {
			if _, ok := workloads[w]; !ok {
				t.Errorf("layer %s names unknown workload %s", l.Module, w)
			}
		}
		for _, m := range l.Metrics {
			if !strings.HasPrefix(m.Name, l.Module+".") {
				t.Errorf("metric %s is not named after its module %s", m.Name, l.Module)
			}
		}
	}
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that the result is correct and carries every named metric with
// its unit, and that the layers' self-CPU shares sum to the profile.
func TestShortRuns(t *testing.T) {
	cat := mustCatalogue(t)
	for _, name := range []string{"rl-verl", "rl-tlt", "serve-mixed"} {
		t.Run(name, func(t *testing.T) {
			rc := runConfig{seed: 3, seconds: time.Second, episodeSteps: 1}
			for _, traced := range []bool{false, true} {
				res, notes, err := execute(cat, name, workloads[name], rc, traced, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || (res.Failed != 0 && !raceEnabled) {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d\n%s",
						traced, res.Correct, res.Attempted, res.Failed, strings.Join(notes, "\n"))
				}
				defs := cat.EndToEnd
				if traced {
					defs = cat.perLayer()
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, d.Name, m, d.Unit)
					}
					if !traced && !raceEnabled && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				if !traced {
					continue
				}
				if res.Metrics["bench.profile_cpu_s"].Value <= 0 {
					t.Fatalf("empty CPU profile")
				}
				var sum float64
				for _, l := range cat.Layers {
					sum += res.Metrics[l.Module+".self_cpu_frac"].Value
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("self-CPU shares sum to %v, want 1", sum)
				}
			}
		})
	}
}

// TestRLChecksFire corrupts the outputs of a real step and episode and
// expects the checks to notice.
func TestRLChecksFire(t *testing.T) {
	sys, _, err := newRLSystem(core.VeRL, 5, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := runEpisode(sys, 2, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := ep.steps[0].stats
	if bad := checkRLStep(core.VeRL, st); len(bad) > 0 {
		t.Fatalf("clean step fails its checks: %v", bad)
	}
	if bad := checkRepeat("same", ep, ep); len(bad) > 0 {
		t.Fatalf("an episode differs from itself: %v", bad)
	}

	corrupt := map[string]func(*core.StepStats){
		"response over the cap":  func(s *core.StepStats) { s.RespLens[3] = rlMaxNew + 1 },
		"missing response":       func(s *core.StepStats) { s.RespLens = s.RespLens[1:] },
		"reward out of range":    func(s *core.StepStats) { s.Summary.MeanReward = 2 },
		"stage times":            func(s *core.StepStats) { s.StepTime++ },
		"speculation under VeRL": func(s *core.StepStats) { s.AcceptLen = 2.5 },
	}
	for name, f := range corrupt {
		c := st
		c.RespLens = slices.Clone(st.RespLens)
		f(&c)
		if bad := checkRLStep(core.VeRL, c); len(bad) == 0 {
			t.Errorf("%s: checks passed", name)
		}
	}

	other := episode{steps: slices.Clone(ep.steps)}
	c := other.steps[1].stats
	c.RespLens = slices.Clone(c.RespLens)
	c.RespLens[0]++
	other.steps[1].sum = stepChecksum(c)
	if bad := checkRepeat("corrupted", ep, other); len(bad) != 1 {
		t.Errorf("mismatched checksum: %v, want one failure", bad)
	}
}

// TestServeChecksFire corrupts the records of a real open-loop pass — a
// dropped chunk, a missing request, a foreign error, a duplicate
// delivery, a malformed response — and expects the checks to notice.
func TestServeChecksFire(t *testing.T) {
	run, err := serveOnce(runConfig{seed: 5, seconds: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	vocab, eos := run.sys.Tk.VocabSize(), run.sys.Tk.Eos()
	if bad := checkServe(run.reqs, run.recs, run.counts(), vocab, eos); len(bad) > 0 {
		t.Fatalf("clean run fails its checks: %v", bad)
	}
	victim := -1
	for i, r := range run.recs {
		if r.served() && len(r.chunks) > 1 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no multi-token response served")
	}
	clone := func() []streamRecord {
		recs := slices.Clone(run.recs)
		for i := range recs {
			recs[i].chunks = slices.Clone(recs[i].chunks)
			recs[i].usage.Tokens = slices.Clone(recs[i].usage.Tokens)
		}
		return recs
	}
	cases := map[string]func() ([]serveRequest, []streamRecord, serveCounts){
		"dropped chunk": func() ([]serveRequest, []streamRecord, serveCounts) {
			recs := clone()
			recs[victim].chunks = recs[victim].chunks[1:]
			return run.reqs, recs, run.counts()
		},
		"missing request": func() ([]serveRequest, []streamRecord, serveCounts) {
			recs := clone()
			return run.reqs, append(recs[:victim], recs[victim+1:]...), run.counts()
		},
		"unaccounted request": func() ([]serveRequest, []streamRecord, serveCounts) {
			cc := run.counts()
			cc.served--
			return run.reqs, clone(), cc
		},
		"foreign error": func() ([]serveRequest, []streamRecord, serveCounts) {
			recs := clone()
			recs[victim].err = os.ErrDeadlineExceeded
			return run.reqs, recs, run.counts()
		},
		"duplicate delivery": func() ([]serveRequest, []streamRecord, serveCounts) {
			cc := run.counts()
			cc.dups = 1
			return run.reqs, clone(), cc
		},
		"token outside the vocabulary": func() ([]serveRequest, []streamRecord, serveCounts) {
			recs := clone()
			recs[victim].chunks[0] = vocab
			recs[victim].usage.Tokens[0] = vocab
			return run.reqs, recs, run.counts()
		},
	}
	for name, f := range cases {
		reqs, recs, cc := f()
		if bad := checkServe(reqs, recs, cc, vocab, eos); len(bad) == 0 {
			t.Errorf("%s: checks passed", name)
		}
	}
}

// TestAttribution checks that self CPU partitions the profile, that
// transparent packages charge their caller, and that cumulative and
// function-set CPU count each sample once.
func TestAttribution(t *testing.T) {
	cat := mustCatalogue(t)
	samples := []cpuSample{
		{nanos: 10, frames: []string{"fastrl/internal/model.expf", "fastrl/internal/model.Softmax", "fastrl/internal/specdec.(*Engine).draftTreeInto", "fastrl/internal/sched.(*Batch).Step", "fastrl/internal/core.(*System).Step", "main.runEpisode"}},
		{nanos: 20, frames: []string{"fastrl/internal/gpu.(*Device).Forward", "fastrl/internal/core.(*System).prefillCost", "fastrl/internal/core.(*System).Step"}},
		{nanos: 30, frames: []string{"runtime.mallocgc", "fastrl/internal/model.(*Table).AddGrad", "fastrl/internal/model.(*Table).AddGrad.func1"}},
		{nanos: 40, frames: []string{"runtime.gcBgMarkWorker"}},
		{nanos: 50, frames: []string{"encoding/json.Marshal", "main.main"}},
	}
	a := attribute(samples, cat)
	if a.total != 150 {
		t.Fatalf("total %d, want 150", a.total)
	}
	var sum int64
	for _, v := range a.self {
		sum += v
	}
	if sum != a.total {
		t.Errorf("self CPU sums to %d, want %d", sum, a.total)
	}
	want := map[string]int64{"model": 40, "core": 20, "runtime": 40, "bench": 50}
	for layer, v := range want {
		if a.self[layer] != v {
			t.Errorf("self[%s] = %d, want %d", layer, a.self[layer], v)
		}
	}
	if a.cum["core"] != 30 || a.cum["specdec"] != 10 || a.cum["model"] != 40 {
		t.Errorf("cumulative %v", a.cum)
	}
	if a.funcs["model.softmax_cpu_s"] != 10 || a.funcs["model.addgrad_cpu_s"] != 30 || a.funcs["specdec.draft_cpu_s"] != 10 {
		t.Errorf("function sets %v", a.funcs)
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted input
		}
		return xs
	}
	for _, c := range []struct {
		n   int
		pct float64
	}{{5, 100}, {19, 100}, {20, 50}, {100, 90}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		v, pct := tail(seq(c.n))
		if pct != c.pct || v != quantile(seq(c.n), pct/100) {
			t.Errorf("n=%d: tail p%g = %v, want p%g", c.n, pct, v, c.pct)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestCheckAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	for i, c := range []struct {
		sum uint64
		bad bool
	}{{0xabc, false}, {0xabc, false}, {0xabd, true}} {
		bad, err := checkAcrossRuns(dir, "TLT-seed1-steps10", c.sum)
		if err != nil {
			t.Fatal(err)
		}
		if (len(bad) > 0) != c.bad {
			t.Errorf("call %d with %x: %v", i, c.sum, bad)
		}
	}
}
