package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/chaos"
	"spotverse/internal/experiment"
	"spotverse/internal/serve"
	"spotverse/internal/strategy"
)

// A fleet cell run through the benchmark's wrapped strategies renders
// byte-identically to the unwrapped sweep the CLI runs.
func TestWrappedStrategyFleetCellMatchesSweep(t *testing.T) {
	sizes := []int{300}
	cells, err := experiment.FleetSweep(sizes, 2)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := experiment.RenderFleet(&want, cells); err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*tracer{nil, newTracer()} {
		runs, err := runLadder(experiment.FleetSeed, sizes, 2, tr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := renderLadder(runs)
		if err != nil {
			t.Fatal(err)
		}
		if ok, diff := sameBytes(want.Bytes(), got); !ok {
			t.Errorf("traced=%v: %s", tr != nil, diff)
		}
		for _, r := range runs {
			if bad := checkCell(r); len(bad) > 0 {
				t.Errorf("traced=%v: %v", tr != nil, bad)
			}
		}
		if tr != nil {
			l := fleetLayers(tr, [][]fleetCellRun{runs})
			if l["cloud.launches"] == 0 || l["cloud.launches"] != l["cloud.terminations"] {
				t.Errorf("launches %v, terminations %v", l["cloud.launches"], l["cloud.terminations"])
			}
			if l["baselines.place_initial_s"] <= 0 || l["experiment.shard_sim_s"] <= 0 {
				t.Errorf("missing spans: %v", l)
			}
		}
	}
}

type plainStrategy struct{}

func (plainStrategy) Name() string { return "plain" }
func (plainStrategy) PlaceInitial(ids []string) (map[string]strategy.Placement, error) {
	return map[string]strategy.Placement{}, nil
}
func (plainStrategy) OnInterrupted(_ string, r catalog.Region, relaunch strategy.RelaunchFunc) error {
	relaunch(strategy.Placement{Region: r})
	return nil
}

type observingStrategy struct {
	plainStrategy
	completed []string
	resolver  func(string) strategy.RelaunchFunc
}

func (s *observingStrategy) OnCompleted(id string) { s.completed = append(s.completed, id) }
func (s *observingStrategy) SetRelaunchResolver(fn func(string) strategy.RelaunchFunc) {
	s.resolver = fn
}

func TestWrapStrategyForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	plain := wrapStrategy(plainStrategy{}, tr.buf(), "plain")
	if _, ok := plain.(completionObserver); ok {
		t.Error("wrapped plain strategy claims CompletionObserver")
	}
	if _, ok := plain.(resolverTarget); ok {
		t.Error("wrapped plain strategy claims RelaunchResolverTarget")
	}

	inner := &observingStrategy{}
	w := wrapStrategy(inner, tr.buf(), "obs")
	if w.Name() != "plain" {
		t.Errorf("Name() = %q", w.Name())
	}
	w.(completionObserver).OnCompleted("wl-1")
	w.(resolverTarget).SetRelaunchResolver(func(string) strategy.RelaunchFunc { return nil })
	if len(inner.completed) != 1 || inner.resolver == nil {
		t.Errorf("calls not forwarded: completed=%v resolver set=%v", inner.completed, inner.resolver != nil)
	}
	relaunched := 0
	if err := w.OnInterrupted("wl-1", catalog.Region("us-east-1"), func(strategy.Placement) { relaunched++ }); err != nil {
		t.Fatal(err)
	}
	if relaunched != 1 {
		t.Errorf("relaunch called %d times", relaunched)
	}
	totals := tr.totals()
	if totals["baselines.obs.on_interrupted"].count != 1 || totals["cloud.relaunch"].count != 1 {
		t.Errorf("spans: %+v", totals)
	}
}

// A wrapped backend still answers, and Drain still reaches the
// backend's flush barrier through it.
func TestWrappedBackendDrainsAndFlushes(t *testing.T) {
	sim, err := experiment.NewServeSim(7, chaos.Off)
	if err != nil {
		t.Fatal(err)
	}
	probe := &serveProbe{}
	backend := wrapBackend(sim.Backend, probe)
	if _, ok := backend.(serve.Flusher); !ok {
		t.Fatal("wrapped SimBackend lost serve.Flusher")
	}
	srv, err := serve.New(serve.Config{Clock: wallClock{}}, backend)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Warm(srv, 20); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if n := sim.Backend.Flushes(); n != 1 {
		t.Errorf("backend flushed %d times, want 1", n)
	}
}

// fakeCLI writes a script that prints body whatever its arguments.
func fakeCLI(t *testing.T, body string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "out.txt"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cli.sh")
	script := "#!/bin/sh\ncat " + filepath.Join(dir, "out.txt") + "\n"
	if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCorruptedOutputFailsCheck(t *testing.T) {
	good := "## Table 1\nrow 1.00\n"
	o := &options{cli: fakeCLI(t, good), procs: 2}

	m := &measurement{}
	checkPaper(o, m, []int64{1, 2}, [][]byte{[]byte(good), []byte(good)})
	if len(m.failures) != 0 {
		t.Fatalf("identical outputs failed: %v", m.failures)
	}
	m = &measurement{}
	corrupt := strings.Replace(good, "1.00", "1.01", 1)
	checkPaper(o, m, []int64{1, 2}, [][]byte{[]byte(good), []byte(corrupt)})
	if len(m.failures) != 1 || !strings.Contains(m.failures[0], "seed 2") {
		t.Errorf("corrupted sweep not caught: %v", m.failures)
	}

	runs, err := runLadder(experiment.FleetSeed, []int{50}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := runs[0]
	if bad := checkCell(r); len(bad) != 0 {
		t.Fatalf("clean cell failed: %v", bad)
	}
	res := *r.cell.Res
	res.Completed++
	r.cell.Res = &res
	if bad := checkCell(r); len(bad) == 0 {
		t.Error("corrupted completion count not caught")
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	got := covered(0, 100, [][2]int64{{10, 30}, {20, 40}, {90, 120}, {-5, 5}})
	if got != 45 { // [0,5) + [10,40) + [90,100)
		t.Errorf("covered = %d, want 45", got)
	}
}

// The result line is the last line of stdout and carries exactly the
// metrics BENCHMARK.json declares, for both kinds of run.
func TestServeRunPrintsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve workload twice")
	}
	decl := readBenchmarkJSON(t)
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		o, err := parseFlags([]string{"--workload", "serve", "--seed", "3", "--seconds", "1", "--trace", trace, "--root", ".."}, &stderr)
		if err != nil {
			t.Fatal(err)
		}
		res, err := run(o, &stdout, &stderr)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("trace=%s: incorrect run: %s", trace, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatal(err)
		}
		if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
			t.Fatalf("result keys: %s", lines[len(lines)-1])
		}
		want := decl.EndToEnd
		if trace == "1" {
			want = decl.PerLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace=%s: %d metrics, BENCHMARK.json declares %d", trace, len(res.Metrics), len(want))
		}
		for _, d := range want {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace=%s: metric %s: got %+v, want unit %s", trace, d.Name, m, d.Unit)
			}
		}
	}
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	return decl
}

// BENCHMARK.json and the code name the same workloads and metrics.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	decl := readBenchmarkJSON(t)
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	for _, w := range decl.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}
	for _, c := range []struct {
		kind string
		decl []declaredMetric
		code []metricSpec
	}{{"end_to_end", decl.EndToEnd, endToEnd}, {"per_layer", decl.PerLayer, perLayer}} {
		if len(c.decl) != len(c.code) {
			t.Errorf("%s: %d declared, %d in code", c.kind, len(c.decl), len(c.code))
			continue
		}
		for i := range c.code {
			if c.decl[i].Name != c.code[i].name || c.decl[i].Unit != c.code[i].unit {
				t.Errorf("%s[%d]: declared %+v, code %+v", c.kind, i, c.decl[i], c.code[i])
			}
		}
	}
}
