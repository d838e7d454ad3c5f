package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"runtime/pprof"
	"strconv"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/experiment"
)

// The paper workload replays `spotverse-experiments -exp all`: the same
// eleven experiments, fanned out over experiment.Gather and flushed in
// sweep order exactly as the CLI's runAll does, one fresh seed per
// sweep. Each experiment's compute call and each Render call is its own
// span in the traced pass.

type paperExp struct {
	name string
	run  func(w io.Writer, seed int64, sb *spanBuf) error
}

// compute runs one experiment's compute call inside its span.
func compute[T any](sb *spanBuf, exp string, fn func() (T, error)) (T, error) {
	i := sb.begin("experiment."+exp, -1)
	v, err := fn()
	sb.end(i)
	return v, err
}

// render runs one Render call inside a report.render span.
func render(sb *spanBuf, fn func() error) error { return sb.do("report.render", fn) }

// paperExperiments is the -exp all sweep in its fixed output order.
var paperExperiments = []paperExp{
	{"table1", func(w io.Writer, seed int64, sb *spanBuf) error {
		rows, err := compute(sb, "table1", func() ([]experiment.Table1Row, error) { return experiment.Table1(seed) })
		if err != nil {
			return err
		}
		return render(sb, func() error { return experiment.RenderTable1(w, rows) })
	}},
	{"fig2", func(w io.Writer, seed int64, sb *spanBuf) error {
		series, err := compute(sb, "fig2", func() ([]experiment.Fig2Series, error) { return experiment.Fig2(seed, 90) })
		if err != nil {
			return err
		}
		return render(sb, func() error { return experiment.RenderFig2(w, series) })
	}},
	{"fig3", func(w io.Writer, seed int64, sb *spanBuf) error {
		res, err := compute(sb, "fig3", func() ([]experiment.Fig3Result, error) { return experiment.Fig3(seed) })
		if err != nil {
			return err
		}
		return render(sb, func() error { return experiment.RenderFig3(w, res) })
	}},
	{"fig4", func(w io.Writer, seed int64, sb *spanBuf) error {
		var avgs []experiment.Fig4Averages
		heat, err := compute(sb, "fig4", func() (h []experiment.Fig4Heatmap, err error) {
			h, avgs, err = experiment.Fig4(seed, 180)
			return h, err
		})
		if err != nil {
			return err
		}
		return render(sb, func() error { return experiment.RenderFig4(w, heat, avgs) })
	}},
	{"fig7", func(w io.Writer, seed int64, sb *spanBuf) error {
		res, err := compute(sb, "fig7", func() ([]experiment.Fig7Result, error) { return experiment.Fig7(seed) })
		if err != nil {
			return err
		}
		return render(sb, func() error { return experiment.RenderFig7(w, res) })
	}},
	{"fig8", func(w io.Writer, seed int64, sb *spanBuf) error {
		types, err := compute(sb, "fig8", func() ([]experiment.Fig8Row, error) { return experiment.Fig8(seed, experiment.Fig8TypeSet) })
		if err != nil {
			return err
		}
		if err := render(sb, func() error {
			return experiment.RenderFig8(w, "Figure 8a/8b — instance types (standard general workload)", types)
		}); err != nil {
			return err
		}
		sizes, err := compute(sb, "fig8", func() ([]experiment.Fig8Row, error) { return experiment.Fig8(seed, experiment.Fig8SizeSet) })
		if err != nil {
			return err
		}
		return render(sb, func() error {
			return experiment.RenderFig8(w, "Figure 8c/8d — m5 family sizes (standard general workload)", sizes)
		})
	}},
	{"fig9", func(w io.Writer, seed int64, sb *spanBuf) error {
		res, err := compute(sb, "fig9", func() ([]experiment.Fig9Result, error) { return experiment.Fig9(seed) })
		if err != nil {
			return err
		}
		return render(sb, func() error { return experiment.RenderFig9(w, res) })
	}},
	{"fig10", func(w io.Writer, seed int64, sb *spanBuf) error {
		cells, err := compute(sb, "fig10", func() ([]experiment.Fig10Cell, error) { return experiment.Fig10(seed) })
		if err != nil {
			return err
		}
		selection, err := compute(sb, "fig10", func() (map[int][]catalog.Region, error) { return experiment.Table3Selection(seed) })
		if err != nil {
			return err
		}
		return render(sb, func() error { return experiment.RenderFig10(w, cells, selection) })
	}},
	{"table4", func(w io.Writer, seed int64, sb *spanBuf) error {
		res, err := compute(sb, "table4", func() (*experiment.Table4Result, error) { return experiment.Table4(seed) })
		if err != nil {
			return err
		}
		return render(sb, func() error { return experiment.RenderTable4(w, res) })
	}},
	{"ext", func(w io.Writer, seed int64, sb *spanBuf) error {
		pred, err := compute(sb, "ext", func() (*experiment.ExtPredictiveResult, error) { return experiment.ExtPredictive(seed, 24) })
		if err != nil {
			return err
		}
		ckpt, err := compute(sb, "ext", func() (*experiment.ExtCheckpointStoresResult, error) {
			return experiment.ExtCheckpointStores(seed, 20)
		})
		if err != nil {
			return err
		}
		scoring, err := compute(sb, "ext", func() (*experiment.ExtScoringModesResult, error) { return experiment.ExtScoringModes(seed, 20) })
		if err != nil {
			return err
		}
		return render(sb, func() error { return experiment.RenderExtensions(w, pred, ckpt, scoring) })
	}},
	{"chaos", func(w io.Writer, seed int64, sb *spanBuf) error {
		rows, err := compute(sb, "chaos", func() ([]experiment.ResilienceRow, error) { return experiment.Resilience(seed) })
		if err != nil {
			return err
		}
		return render(sb, func() error { return experiment.RenderResilience(w, rows) })
	}},
}

// paperSweep runs one -exp all sweep at seed and returns its bytes,
// fanned out and labelled as the CLI's runAll does.
func paperSweep(seed int64, tr *tracer) ([]byte, error) {
	bufs, err := experiment.Gather(len(paperExperiments), func(i int) (*bytes.Buffer, error) {
		var buf bytes.Buffer
		e := paperExperiments[i]
		sb := tr.buf()
		var err error
		pprof.Do(context.Background(), pprof.Labels("experiment", e.name), func(context.Context) {
			err = e.run(&buf, seed, sb)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintln(&buf)
		return &buf, nil
	})
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	for _, b := range bufs {
		out.Write(b.Bytes())
	}
	return out.Bytes(), nil
}

// setupReps is how many times each workload repeats its set-up; the
// median is reported as setup_s.
const setupReps = 9

// resetMarket drops every cached market snapshot, so a set-up
// repetition or a second pass starts from the same cold store.
func resetMarket() { experiment.SetMarketCache(experiment.MarketCache()) }

// warmupSeedBase offsets set-up seeds away from the timed sequence.
const warmupSeedBase = 1 << 20

func runPaper(o *options, tr *tracer, ops int) (*measurement, error) {
	m := &measurement{}
	// Set-up: a cold market store and one warm-up sweep, which deploys
	// the environments and acquires the market the way a first sweep does.
	var setups []float64
	for k := 0; k < setupReps; k++ {
		resetMarket()
		t0 := time.Now()
		if _, err := paperSweep(deriveSeed(o.seed, warmupSeedBase+int64(k)), nil); err != nil {
			return nil, fmt.Errorf("paper set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	m.setupS = median(setups)

	heap := startHeapSampler(5 * time.Millisecond)
	before := readRuntime()
	var (
		seeds     []int64
		outs      [][]byte
		times     []float64
		errored   []error
		last      time.Duration
		heapPeaks []float64
	)
	begin := time.Now()
	for i := 0; ops == 0 && moreTime(begin, last, o.seconds) || i < ops; i++ {
		seed := deriveSeed(o.seed, int64(i))
		// Each sweep starts on an empty market store, as every
		// `-exp all` process does. The store keeps a snapshot per seed
		// it has seen, so without this the heap and the store's
		// eviction work would grow with the number of sweeps a run fits.
		resetMarket()
		t0 := time.Now()
		out, err := paperSweep(seed, tr)
		last = time.Since(t0)
		times = append(times, ms(last))
		heapPeaks = append(heapPeaks, heap.Take())
		seeds = append(seeds, seed)
		outs = append(outs, out)
		errored = append(errored, err)
	}
	wall := time.Since(begin)
	m.rt = runtimeSince(before, len(seeds))
	heap.Stop()
	m.peakHeapMB = median(heapPeaks)

	m.ops = len(seeds)
	m.attempted = len(seeds)
	m.p50Ms = median(times)
	m.throughput = float64(len(seeds)) / wall.Seconds()
	var rendered bytes.Buffer
	for i, out := range outs {
		if errored[i] != nil {
			m.fail("paper sweep seed %d: %v", seeds[i], errored[i])
		}
		sum := sha256.Sum256(out)
		rendered.Write(sum[:])
	}
	m.rendered = rendered.Bytes()

	if tr == nil {
		checkPaper(o, m, seeds, outs)
		return m, nil
	}
	totals := tr.totals()
	n := float64(len(seeds))
	m.layers = map[string]float64{"report.render_s": totals["report.render"].total.Seconds() / n}
	for _, e := range paperExperiments {
		m.layers["experiment."+e.name+"_s"] = totals["experiment."+e.name].total.Seconds() / n
	}
	return m, nil
}

// checkPaper compares every sweep with `spotverse-experiments -exp all
// -seed S` for its seed.
func checkPaper(o *options, m *measurement, seeds []int64, outs [][]byte) {
	args := make([][]string, len(seeds))
	for i, s := range seeds {
		args[i] = []string{"-exp", "all", "-seed", strconv.FormatInt(s, 10)}
	}
	want, errs := cliRunAll(o.cli, args, o.procs)
	for i := range seeds {
		if errs[i] != nil {
			m.fail("paper reference: %v", errs[i])
			continue
		}
		if ok, diff := sameBytes(want[i], outs[i]); !ok {
			m.fail("paper sweep seed %d differs from -exp all: %s", seeds[i], diff)
		}
	}
}
