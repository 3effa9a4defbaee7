// Command perfbench is the repository's benchmark. One invocation runs one
// named workload through the public APIs of core and cluster, checks the
// program's outputs, and prints its metrics by name and unit; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {"setup_s": {"value": 0.41, "unit": "s"}, ...}}
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload rl-tlt --seed 1 --seconds 30 --trace 0
//
// run.sh keeps the Go build cache and the binary under .bench_build.
//
// # Workloads
//
//   - rl-tlt: core.System of kind TLT on one 8×H100 node (four TP-2
//     rollout workers, Qwen-7B cost model), 32 prompts × GRPO group 8 per
//     step, MaxNew 384 under the long-tail length prior. The paper's
//     system: each step decodes in vanilla mode, switches to elastic SD
//     for the tail, and idle workers spot-train the drafter.
//   - rl-verl: the same seed, tasks and shape with kind VeRL. draft,
//     specdec and spot do no work, so it is the bypass workload for every
//     drafter or speculation change, and the paper's baseline:
//     virt_tok_per_s on rl-tlt over rl-verl is the end-to-end speedup.
//   - serve-mixed: open-loop Poisson arrivals at a fixed rate into a
//     2-shard × 1-replica cluster serving the warmed target and Eagle
//     drafter, with per-shard prefix caches, the cache fabric and
//     fabric-aware routing. Half the prompts open with one of 8 shared
//     48-token templates, half are bare task prompts (the control for
//     prefix reuse). The only workload through serving, cluster,
//     prefixcache and cachefabric.
//
// The seed chooses the inputs — the task pool, the templates and the
// arrival trace. The policy's initialisation is fixed (see systemSeed).
//
// # Two clocks
//
// Wall time is the simulator's own CPU cost: step_wall_ms_p50,
// wall_tok_per_s, the ttft and latency metrics and setup_s, which kernel,
// scheduler and drafter work move. cpu_ms_per_op is the same cost as
// process CPU time, which leaves out time a shared host steals. Virtual time is the modelled GPU cost
// the paper reports: virt_tok_per_s and decode_virt_ms_p50, which perf
// work must leave unchanged. layers.json defines every metric on every
// workload and maps each module to its per-layer metrics, the end-to-end
// metrics it should move, and the workloads it is heavy on or bypassed by.
//
// # Traced run
//
// With --trace 0 the run carries no instrumentation and prints the
// end-to-end metrics. With --trace 1 the workload runs twice for half the
// time each: untraced, then with the benchmark's own spans (around
// core.New, WarmUpDrafter, System.Step, Cluster.Stream → first token →
// terminal event, FabricTick) and a runtime/pprof CPU profile. The
// profile's samples are charged to the modules of layers.json by their
// stack frames, which gives each layer's cumulative and self CPU from
// outside the program; the spans and profiles are written under
// .bench_build/trace. The cost of the traced half over the untraced
// one is bench.trace_overhead_frac.
//
// # Output checks
//
// RL steps are checked for well-formed outputs (response count and
// lengths against the cap, reward and accuracy ranges, stage times that
// sum to the step, no speculation or spot training under VeRL). Every
// episode of a run, and a replay of its first steps at GOMAXPROCS=1, must
// reproduce the first episode's per-step checksums exactly, and the first
// episode's checksum must equal the one an earlier run of the same binary
// and seed recorded under .bench_build/checksums. The checksums cover the
// response lengths, rewards, KL, accept lengths and virtual stage times of
// every step: System.Step does not expose the response tokens themselves.
//
// serve-mixed is checked structurally: sent = served + shed + errored on
// both sides of the API, no duplicate deliveries, each stream's chunks
// concatenate to its terminal response, every response ends in EOS or at
// its cap, and no error other than a typed *cluster.ErrShedded. It has no
// token checksum on purpose: under the default BEG-MAB strategy ladder the
// SD strategy depends on the co-batch size, so the tokens served depend on
// arrival timing. Same-seed checksums differ at 100 req/s and match once
// the ladder is pinned to one strategy; the tokens keep their
// distribution, so this is not a correctness bug.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"fastrl/internal/core"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) *runOutput{
	"rl-tlt": func(rc runConfig) *runOutput {
		return runRL(rlParams{kind: core.TLT, stepLimit: 3 * time.Second}, rc)
	},
	"rl-verl": func(rc runConfig) *runOutput {
		return runRL(rlParams{kind: core.VeRL, stepLimit: 600 * time.Millisecond}, rc)
	},
	"serve-mixed": runServe,
}

// runConfig is what one pass of a workload is given.
type runConfig struct {
	seed    int64
	seconds time.Duration
	// spans and prof are nil in untraced passes.
	spans *spans
	prof  *profiler
	// episodeSteps overrides the RL episode length (tests shorten it).
	episodeSteps int
	// stateDir keeps RL checksums between runs for the cross-run
	// determinism check; empty skips it.
	stateDir string
}

// runOutput is what one pass of a workload measured and found.
type runOutput struct {
	e2e   map[string]float64
	layer map[string]float64
	// attempted/failed count steps (rl-*) or sent requests (serve-mixed).
	attempted, failed int
	// problems are failed output checks.
	problems []string
	// unitCost is the cost of one unit of work that trace overhead is
	// measured on: wall seconds per step (rl-*), process CPU seconds per
	// sent request (serve-mixed, whose wall time the schedule fixes).
	unitCost float64
	notes    []string
}

func newRunOutput() *runOutput {
	return &runOutput{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *runOutput) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// profiler collects CPU-profile segments; a nil *profiler is off.
type profiler struct {
	buf      bytes.Buffer
	segments [][]byte
	err      error
}

func (p *profiler) start() {
	if p == nil {
		return
	}
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil && p.err == nil {
		p.err = err
	}
}

func (p *profiler) stop() {
	if p == nil {
		return
	}
	pprof.StopCPUProfile()
	p.segments = append(p.segments, bytes.Clone(p.buf.Bytes()))
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: rl-tlt, rl-verl or serve-mixed")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload rl-tlt|rl-verl|serve-mixed, --seconds > 0, --trace 0|1\n")
		return 2
	}
	cat, err := loadCatalogue()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rc := runConfig{
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		stateDir: filepath.Join(".bench_build", "checksums"),
	}
	res, notes, err := execute(cat, *name, wl, rc, *trace == 1, filepath.Join(".bench_build", "trace"))
	for _, n := range notes {
		fmt.Fprintln(stderr, n)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one workload (twice when traced) and assembles the result:
// the end-to-end metrics, or with trace the per-layer ones. Failed output
// checks make the result incorrect; the returned notes explain why.
func execute(cat *catalogue, name string, wl func(runConfig) *runOutput, rc runConfig, traced bool, outDir string) (*result, []string, error) {
	var out *runOutput
	var notes []string
	defs := cat.EndToEnd
	if !traced {
		out = wl(rc)
	} else {
		defs = cat.perLayer()
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, nil, err
		}
		half := rc
		half.seconds /= 2
		base := wl(half)
		for _, n := range base.notes {
			notes = append(notes, "untraced: "+n)
		}
		half.spans = newSpans()
		half.prof = &profiler{}
		out = wl(half)
		out.problems = append(out.problems, base.problems...)
		out.attempted += base.attempted
		out.failed += base.failed
		if base.unitCost > 0 {
			out.layer["bench.trace_overhead_frac"] = out.unitCost/base.unitCost - 1
		}
		if err := addProfile(cat, out, half.prof); err != nil {
			return nil, notes, err
		}
		paths, err := writeTrace(outDir, name, rc.seed, half.spans, half.prof)
		if err != nil {
			return nil, notes, err
		}
		notes = append(notes, "trace written to "+strings.Join(paths, ", "))
	}
	notes = append(notes, out.notes...)
	if out.attempted > 0 {
		out.layer["bench.fail_frac"] = float64(out.failed) / float64(out.attempted)
	}
	values := out.e2e
	if traced {
		values = out.layer
	}

	res := &result{Attempted: max(out.attempted, 1), Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !traced {
			out.problem("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.problem("metric %s is %v", d.Name, v)
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		notes = append(notes, fmt.Sprintf("%-32s %14.6g %s", d.Name, v, d.Unit))
	}
	res.Correct = len(out.problems) == 0
	for _, p := range out.problems {
		notes = append(notes, "CHECK FAILED: "+p)
	}
	return res, notes, nil
}

// addProfile charges the traced pass's CPU samples to layers: each
// module's cumulative CPU (<module>.cpu_s), its self share of the profile
// (<module>.self_cpu_frac), and each function-set metric.
func addProfile(cat *catalogue, out *runOutput, p *profiler) error {
	if p.err != nil {
		return fmt.Errorf("cpu profile: %w", p.err)
	}
	var samples []cpuSample
	for _, seg := range p.segments {
		s, err := parseCPUProfile(seg)
		if err != nil {
			return err
		}
		samples = append(samples, s...)
	}
	a := attribute(samples, cat)
	out.layer["bench.profile_cpu_s"] = float64(a.total) / 1e9
	for _, l := range cat.Layers {
		if l.Module != "runtime" && l.Module != "bench" {
			out.layer[l.Module+".cpu_s"] = float64(a.cum[l.Module]) / 1e9
		}
		if a.total > 0 {
			out.layer[l.Module+".self_cpu_frac"] = float64(a.self[l.Module]) / float64(a.total)
		}
	}
	for name, ns := range a.funcs {
		out.layer[name] = float64(ns) / 1e9
	}
	return nil
}

// writeTrace writes the spans as a Chrome trace and each CPU-profile
// segment as a pprof file, returning their paths.
func writeTrace(dir, name string, seed int64, sp *spans, p *profiler) ([]string, error) {
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	js, err := json.Marshal(sp.chrome())
	if err != nil {
		return nil, err
	}
	paths := []string{base + ".trace.json"}
	if err := os.WriteFile(paths[0], js, 0o644); err != nil {
		return nil, err
	}
	for i, seg := range p.segments {
		path := fmt.Sprintf("%s.cpu%d.pprof", base, i)
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}
