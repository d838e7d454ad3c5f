// Command perfbench is the SpotVerse repository benchmark. It drives the
// three production paths through the same public entry points their
// CLIs use, checks every output, and prints one JSON result line:
//
//	paper  the `spotverse-experiments -exp all` sweep, one fresh seed per sweep
//	fleet  the default `-exp fleet` ladder on the sharded fleet engine
//	serve  an in-process spotverse-serve daemon behind a loopback listener,
//	       driven open loop by the generated 80/15/5 request mix
//
// Usage (from the repository root, normally through perfbench/run.sh,
// which builds this binary and the CLI it checks against):
//
//	perfbench --workload paper|fleet|serve --seed N --seconds S --trace 0|1 \
//	    --root DIR --cli PATH
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the workload runs twice, untraced then traced, and the
// result carries the per-layer metrics: spans and counts recorded at
// the benchmark's own calls into each layer, the Go runtime's counters
// from the untraced pass, and the tracing overhead between the passes.
// METRICS.md defines every metric and the end-to-end metric each
// per-layer metric is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"spotverse/internal/experiment"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports, on every workload.
// An "op" is the workload's unit of user-visible work: one -exp all
// sweep (paper), one fleet ladder (fleet), one HTTP request (serve).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_heap_mb", "MiB"},
}

// perLayer lists the metrics a --trace 1 run reports, on every workload;
// a layer the workload does not exercise reports 0.
var perLayer = func() []metricSpec {
	specs := []metricSpec{}
	for _, exp := range paperExperiments {
		specs = append(specs, metricSpec{"experiment." + exp.name + "_s", "s"})
	}
	specs = append(specs,
		metricSpec{"report.render_s", "s"},
		metricSpec{"workload.generate_s", "s"},
		metricSpec{"experiment.shard_sim_s", "s"},
		metricSpec{"experiment.shard_imbalance", "ratio"},
		metricSpec{"experiment.parallel_eff", "ratio"},
		metricSpec{"experiment.merge_s", "s"},
		metricSpec{"baselines.place_initial_s", "s"},
	)
	for _, arm := range fleetArmNames {
		specs = append(specs,
			metricSpec{"baselines." + arm + ".on_interrupted_calls", "count"},
			metricSpec{"baselines." + arm + ".on_interrupted_self_s", "s"},
		)
	}
	specs = append(specs,
		metricSpec{"cloud.relaunch_s", "s"},
		metricSpec{"cloud.launches", "count"},
		metricSpec{"cloud.terminations", "count"},
		metricSpec{"cloud.interruptions", "count"},
		metricSpec{"simclock.events_per_wl", "count"},
		metricSpec{"serve.request_p95_ms", "ms"},
		metricSpec{"serve.request_p99_ms", "ms"},
		metricSpec{"serve.handler_p50_ms", "ms"},
		metricSpec{"serve.handler_p99_ms", "ms"},
		metricSpec{"serve.backend.place_ms", "ms"},
		metricSpec{"serve.backend.advisor_ms", "ms"},
		metricSpec{"serve.backend.migrations_ms", "ms"},
		metricSpec{"serve.gate_pool_ms", "ms"},
		metricSpec{"serve.client_ms", "ms"},
		metricSpec{"serve.shed", "count"},
		metricSpec{"serve.deadline", "count"},
		metricSpec{"serve.errors", "count"},
		metricSpec{"serve.queue_high_water", "count"},
		metricSpec{"serve.breaker_trips", "count"},
		metricSpec{"serve.gen_lateness_ms", "ms"},
		metricSpec{"runtime.allocs_per_op", "count"},
		metricSpec{"runtime.alloc_bytes_per_op", "B"},
		metricSpec{"runtime.gc_pause_s", "s"},
		metricSpec{"runtime.gc_cycles", "count"},
		metricSpec{"trace.overhead_frac", "ratio"},
	)
	return specs
}()

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string
	cli      string
	procs    int
	diag     io.Writer // human-readable progress, never parsed
}

// measurement is what one pass over a workload reports.
type measurement struct {
	setupS     float64
	p50Ms      float64
	throughput float64
	peakHeapMB float64

	ops       int // operations timed (sweeps, ladders, requests)
	attempted int // operations and checks attempted
	failures  []string

	// rendered is the pass's deterministic rendered output; the traced
	// pass must reproduce the untraced pass's bytes exactly.
	rendered []byte
	// rt is the runtime's work per op: per sweep, simulated workload,
	// or request.
	rt runtimeUse
	// layers are the traced pass's per-layer metrics; untracedLayers
	// are per-layer metrics taken from the untraced pass.
	layers         map[string]float64
	untracedLayers map[string]float64
}

func (m *measurement) fail(format string, args ...any) {
	m.failures = append(m.failures, fmt.Sprintf(format, args...))
}

// workloadFunc runs one pass. ops is 0 for the untraced pass, which runs
// for the configured time; the traced pass gets the untraced pass's op
// count so both render the same outputs.
type workloadFunc func(o *options, tr *tracer, ops int) (*measurement, error)

var workloads = map[string]workloadFunc{
	"paper": runPaper,
	"fleet": runFleet,
	"serve": runServe,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(o, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := &options{procs: runtime.GOMAXPROCS(0), diag: stderr}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: paper, fleet or serve")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Int("seconds", 10, "how long the untraced pass measures, in seconds")
	trace := fs.Int("trace", 0, "1 runs an untraced and a traced pass and reports per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "repository root, hashed into the result header")
	fs.StringVar(&o.cli, "cli", "", "spotverse-experiments binary the paper and fleet outputs are checked against")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return nil, fmt.Errorf("unknown --workload %q (want paper, fleet or serve)", o.workload)
	}
	if *seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if o.cli == "" && o.workload != "serve" {
		return nil, errors.New("--cli is required for the paper and fleet workloads")
	}
	o.seconds = time.Duration(*seconds) * time.Second
	o.trace = *trace == 1
	return o, nil
}

// run executes the workload, prints the header first and the result
// line last on stdout, and a human-readable summary on stderr.
func run(o *options, stdout, stderr io.Writer) (*result, error) {
	hdr, err := json.Marshal(map[string]any{"header": header(o)})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(hdr))

	experiment.SetWorkers(o.procs)
	w := workloads[o.workload]
	base, err := w(o, nil, 0)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metricValue{}}
	failures := base.failures
	res.Attempted = base.attempted
	if !o.trace {
		vals := map[string]float64{
			"setup_s":          base.setupS,
			"op_p50_ms":        base.p50Ms,
			"throughput_per_s": base.throughput,
			"peak_heap_mb":     base.peakHeapMB,
		}
		for _, s := range endToEnd {
			res.Metrics[s.name] = metricValue{vals[s.name], s.unit}
		}
	} else {
		traced, err := w(o, newTracer(), base.ops)
		if err != nil {
			return nil, err
		}
		res.Attempted += traced.attempted
		failures = append(failures, traced.failures...)
		if string(traced.rendered) != string(base.rendered) {
			failures = append(failures, "traced pass rendered different bytes than the untraced pass")
		}
		res.Attempted++
		vals := traced.layers
		for name, v := range base.untracedLayers {
			vals[name] = v
		}
		vals["runtime.allocs_per_op"] = base.rt.allocsPerOp
		vals["runtime.alloc_bytes_per_op"] = base.rt.bytesPerOp
		vals["runtime.gc_pause_s"] = base.rt.gcPauseS
		vals["runtime.gc_cycles"] = base.rt.gcCycles
		vals["trace.overhead_frac"] = traced.p50Ms/base.p50Ms - 1
		for _, s := range perLayer {
			res.Metrics[s.name] = metricValue{vals[s.name], s.unit}
		}
	}
	res.Failed = len(failures)
	res.Correct = res.Failed == 0
	for _, f := range failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	summarize(stderr, o, res)
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(line))
	return res, nil
}

func summarize(w io.Writer, o *options, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v: attempted=%d failed=%d\n", o.workload, o.seed, o.trace, res.Attempted, res.Failed)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-44s %14.6g %s\n", name, m.Value, m.Unit)
	}
}

// header identifies the code and host a result came from, so results
// from different hosts or commits are never compared unknowingly.
func header(o *options) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    int(o.seconds / time.Second),
		"trace":      o.trace,
		"commit":     gitCommit(o.root),
		"source":     sourceDigest(o.root),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// gitCommit reads HEAD from root/.git without running git; a checkout
// that is not a git repository reports "none" (the source digest still
// identifies the code).
func gitCommit(root string) string {
	head, err := os.ReadFile(root + "/.git/HEAD")
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(root + "/.git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(root + "/.git/packed-refs")
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}
