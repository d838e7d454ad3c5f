package main

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"time"

	"spotverse/internal/baselines"
	"spotverse/internal/catalog"
	"spotverse/internal/cloud"
	"spotverse/internal/experiment"
	"spotverse/internal/simclock"
	"spotverse/internal/strategy"
	"spotverse/internal/workload"
)

// The fleet workload runs the default `-exp fleet` ladder (both arms at
// 1k, 10k, 50k and 100k standard workloads, 14-day horizon) through
// workload.GenerateFleet and experiment.RunFleetSharded, in the cell
// order and fan-out of experiment.FleetSweep, with one shard per
// processor as the CLI's -fleet-shards default.
//
// The simulation runs at experiment.FleetSeed, as `-exp fleet` does, and
// the workload seed generates the fleet. The simulation seed fixes the
// market walk, and one walk can cause twice the interruptions of
// another, so letting the workload seed pick it would make a ladder's
// cost a draw of the seed; a generated fleet of 1k-100k workloads costs
// nearly the same at every seed. At workload seed 42 the ladder is
// exactly the CLI's.

// fleetArmNames are the ladder's strategy arms, in cell order.
var fleetArmNames = []string{"single-region", "skypilot"}

// buildArm constructs an arm the way experiment.RunFleetCell does.
func buildArm(arm string, env *experiment.Env) (strategy.Strategy, error) {
	switch arm {
	case "single-region":
		return baselines.NewSingleRegion(env.Catalog(), catalog.M5XLarge, experiment.BaselineRegionM5XLarge)
	case "skypilot":
		return baselines.NewSkyPilotLike(env.Engine, env.Market, catalog.M5XLarge)
	}
	return nil, fmt.Errorf("unknown fleet arm %q", arm)
}

// cellProbe observes one RunFleetSharded call from outside: it builds
// each shard's strategy, so it sees every shard's provider and engine.
type cellProbe struct {
	arm        string
	tr         *tracer
	start, end time.Time // around RunFleetSharded

	mu     sync.Mutex
	shards []*shardProbe
}

// shardProbe holds one shard's boundary counts and, when traced, its
// span buffer and sim interval. A shard runs on one goroutine, so its
// hooks update it without locking.
type shardProbe struct {
	buf                                   *spanBuf
	launches, terminations, interruptions int
	start, lastTerm                       time.Time
}

// newStrategy is the cell's FleetShardedConfig.NewStrategy. It counts
// launches and terminations on the shard's provider and, when traced,
// wraps the strategy and timestamps the shard's last termination.
func (c *cellProbe) newStrategy(env *experiment.Env) (strategy.Strategy, error) {
	sp := &shardProbe{buf: c.tr.buf()}
	traced := c.tr != nil
	if traced {
		sp.start = time.Now()
	}
	c.mu.Lock()
	c.shards = append(c.shards, sp)
	c.mu.Unlock()
	env.Provider.OnLaunch(func(*cloud.Instance) { sp.launches++ })
	env.Provider.OnTerminate(func(_ *cloud.Instance, interrupted bool) {
		sp.terminations++
		if interrupted {
			sp.interruptions++
		}
		if traced {
			sp.lastTerm = time.Now()
		}
	})
	s, err := buildArm(c.arm, env)
	if err != nil || !traced {
		return s, err
	}
	return wrapStrategy(s, sp.buf, c.arm), nil
}

// tracedStrategy times a strategy's calls. It forwards Name and, through
// the variants wrapStrategy picks, exactly the optional interfaces the
// inner strategy implements. It never subscribes to interruption notices:
// a notice subscriber changes when the provider schedules reclaims.
type tracedStrategy struct {
	inner      strategy.Strategy
	buf        *spanBuf
	onInterrup string
}

func (s *tracedStrategy) Name() string { return s.inner.Name() }

func (s *tracedStrategy) PlaceInitial(ids []string) (map[string]strategy.Placement, error) {
	i := s.buf.begin("baselines.place_initial", -1)
	p, err := s.inner.PlaceInitial(ids)
	s.buf.end(i)
	return p, err
}

// OnInterrupted times the call and, as a child span, the relaunch it
// triggers, so the strategy's self time excludes the provider's work.
func (s *tracedStrategy) OnInterrupted(id string, current catalog.Region, relaunch strategy.RelaunchFunc) error {
	i := s.buf.begin(s.onInterrup, -1)
	err := s.inner.OnInterrupted(id, current, func(p strategy.Placement) {
		c := s.buf.begin("cloud.relaunch", i)
		relaunch(p)
		s.buf.end(c)
	})
	s.buf.end(i)
	return err
}

type resolverTarget = experiment.RelaunchResolverTarget
type completionObserver = experiment.CompletionObserver

type tracedResolver struct{ *tracedStrategy }

func (s tracedResolver) SetRelaunchResolver(fn func(id string) strategy.RelaunchFunc) {
	s.inner.(resolverTarget).SetRelaunchResolver(fn)
}

type tracedObserver struct{ *tracedStrategy }

func (s tracedObserver) OnCompleted(id string) { s.inner.(completionObserver).OnCompleted(id) }

type tracedResolverObserver struct{ *tracedStrategy }

func (s tracedResolverObserver) SetRelaunchResolver(fn func(id string) strategy.RelaunchFunc) {
	s.inner.(resolverTarget).SetRelaunchResolver(fn)
}

func (s tracedResolverObserver) OnCompleted(id string) { s.inner.(completionObserver).OnCompleted(id) }

// wrapStrategy returns a traced strategy that satisfies the same
// optional harness interfaces as inner, and no others.
func wrapStrategy(inner strategy.Strategy, buf *spanBuf, arm string) strategy.Strategy {
	t := &tracedStrategy{inner: inner, buf: buf, onInterrup: "baselines." + arm + ".on_interrupted"}
	_, res := inner.(resolverTarget)
	_, obs := inner.(completionObserver)
	switch {
	case res && obs:
		return tracedResolverObserver{t}
	case res:
		return tracedResolver{t}
	case obs:
		return tracedObserver{t}
	}
	return t
}

// fleetCellRun is one cell's result plus what the probe saw and the
// fleet's own count of completed workloads (the fleet itself is not
// kept, so later ladders do not run with earlier fleets still live).
type fleetCellRun struct {
	cell           experiment.FleetCell
	probe          *cellProbe
	fleetLen       int
	fleetCompleted int
}

// runLadder runs every (size, arm) cell over the worker pool, as
// experiment.FleetSweep does, on fleets generated from fleetSeed, and
// returns the cells in sweep order.
func runLadder(fleetSeed int64, sizes []int, shards int, tr *tracer) ([]fleetCellRun, error) {
	type spec struct {
		arm  string
		size int
	}
	var specs []spec
	for _, size := range sizes {
		for _, arm := range fleetArmNames {
			specs = append(specs, spec{arm, size})
		}
	}
	return experiment.Gather(len(specs), func(i int) (fleetCellRun, error) {
		sp := specs[i]
		sb := tr.buf()
		var f *workload.FleetState
		if err := sb.do("workload.generate", func() (err error) {
			f, err = workload.GenerateFleet(simclock.Stream(fleetSeed, "wl-standard"),
				workload.GenOptions{Kind: workload.KindStandard, Count: sp.size})
			return err
		}); err != nil {
			return fleetCellRun{}, err
		}
		probe := &cellProbe{arm: sp.arm, tr: tr}
		probe.start = time.Now()
		res, err := experiment.RunFleetSharded(experiment.FleetSeed, experiment.FleetShardedConfig{
			Fleet:           f,
			NewStrategy:     probe.newStrategy,
			InstanceType:    catalog.M5XLarge,
			AllowIncomplete: true,
			Shards:          shards,
			ProfLabel:       fmt.Sprintf("fleet-%s-%d", sp.arm, sp.size),
		})
		probe.end = time.Now()
		if err != nil {
			return fleetCellRun{}, fmt.Errorf("fleet %s n=%d: %w", sp.arm, sp.size, err)
		}
		completed := 0
		for _, c := range f.Completed {
			if c {
				completed++
			}
		}
		return fleetCellRun{cell: experiment.FleetCell{Arm: sp.arm, Size: sp.size, Res: res}, probe: probe,
			fleetLen: f.Len(), fleetCompleted: completed}, nil
	})
}

func renderLadder(runs []fleetCellRun) ([]byte, error) {
	cells := make([]experiment.FleetCell, len(runs))
	for i, r := range runs {
		cells[i] = r.cell
	}
	var buf bytes.Buffer
	err := experiment.RenderFleet(&buf, cells)
	return buf.Bytes(), err
}

// checkCell verifies one cell's conservation laws: every workload is
// completed or stranded, the result agrees with the fleet's own
// columns and histograms, and every launched instance was terminated.
func checkCell(r fleetCellRun) []string {
	var bad []string
	res, n, completed := r.cell.Res, r.fleetLen, r.fleetCompleted
	stranded := n - completed
	if res.Workloads != n || res.Completed != completed || res.Completed+stranded != n {
		bad = append(bad, fmt.Sprintf("workloads=%d completed=%d, fleet has %d completed of %d", res.Workloads, res.Completed, completed, n))
	}
	if s := sumInts(res.CompletionsPerInterval); s != res.Completed {
		bad = append(bad, fmt.Sprintf("completion histogram sums to %d, completed=%d", s, res.Completed))
	}
	byRegion := 0
	for _, c := range res.InterruptionsByRegion {
		byRegion += c
	}
	if s := sumInts(res.InterruptionsPerInterval); s != res.Interruptions || byRegion != res.Interruptions {
		bad = append(bad, fmt.Sprintf("interruptions=%d, histogram %d, by region %d", res.Interruptions, s, byRegion))
	}
	launches, terms := 0, 0
	for _, sp := range r.probe.shards {
		launches += sp.launches
		terms += sp.terminations
	}
	if launches != terms {
		bad = append(bad, fmt.Sprintf("launches=%d terminations=%d", launches, terms))
	}
	for i, msg := range bad {
		bad[i] = fmt.Sprintf("fleet %s n=%d: %s", r.cell.Arm, r.cell.Size, msg)
	}
	return bad
}

func sumInts(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

func runFleet(o *options, tr *tracer, ops int) (*measurement, error) {
	m := &measurement{}
	sizes := experiment.DefaultFleetSizes
	// Set-up: a cold market store, then the smallest rung of both arms —
	// environment deploy, market acquire, strategy build, shard engines
	// and merge. The last repetition leaves the ladder's market warm.
	var setups []float64
	for k := 0; k < setupReps; k++ {
		resetMarket()
		t0 := time.Now()
		if _, err := runLadder(o.seed, sizes[:1], o.procs, nil); err != nil {
			return nil, fmt.Errorf("fleet set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	m.setupS = median(setups)

	heap := startHeapSampler(5 * time.Millisecond)
	before := readRuntime()
	var (
		ladders   [][]fleetCellRun
		times     []float64
		heapPeaks []float64
		last      time.Duration
	)
	begin := time.Now()
	for i := 0; ops == 0 && moreTime(begin, last, o.seconds) || i < ops; i++ {
		t0 := time.Now()
		runs, err := runLadder(o.seed, sizes, o.procs, tr)
		if err != nil {
			heap.Stop()
			return nil, err
		}
		last = time.Since(t0)
		times = append(times, ms(last))
		heapPeaks = append(heapPeaks, heap.Take())
		fmt.Fprintf(o.diag, "fleet ladder %d: %.3fs\n", i, last.Seconds())
		ladders = append(ladders, runs)
	}
	wall := time.Since(begin)
	workloads := 0
	for _, runs := range ladders {
		for _, r := range runs {
			workloads += r.cell.Size
		}
	}
	m.rt = runtimeSince(before, workloads)
	heap.Stop()
	m.peakHeapMB = median(heapPeaks)

	m.ops = len(ladders)
	m.p50Ms = median(times)
	m.throughput = float64(workloads) / wall.Seconds()

	for li, runs := range ladders {
		out, err := renderLadder(runs)
		if err != nil {
			return nil, err
		}
		if li == 0 {
			m.rendered = out
		} else if ok, diff := sameBytes(m.rendered, out); !ok {
			m.fail("fleet ladder %d rendered differently from ladder 0: %s", li, diff)
		}
		for ci, r := range runs {
			m.attempted++
			for _, msg := range checkCell(r) {
				m.fail("ladder %d: %s", li, msg)
			}
			if got, want := r.cell.Res.EventsFired, ladders[0][ci].cell.Res.EventsFired; got != want {
				m.fail("fleet %s n=%d: EventsFired %d in ladder %d, %d in ladder 0", r.cell.Arm, r.cell.Size, got, li, want)
			}
		}
	}

	if tr == nil {
		checkFleetReference(o, m, sizes)
		return m, nil
	}
	m.layers = fleetLayers(tr, ladders)
	return m, nil
}

// moreTime reports whether another operation should start: the window
// is not over and at least half of an operation as long as the last
// one still fits in it.
func moreTime(begin time.Time, last, window time.Duration) bool {
	return time.Since(begin)+last/2 < window
}

// checkFleetReference compares the benchmark's ladder with the CLI's
// `-exp fleet` stdout at the reference seed: the smallest rung always,
// and the whole ladder when the workload seed is the reference seed
// (its table was already rendered by the timed ladders).
func checkFleetReference(o *options, m *measurement, sizes []int) {
	small := sizes[:1]
	m.attempted++
	runs, err := runLadder(experiment.FleetSeed, small, o.procs, nil)
	if err != nil {
		m.fail("fleet reference ladder: %v", err)
		return
	}
	got, err := renderLadder(runs)
	if err != nil {
		m.fail("fleet reference render: %v", err)
		return
	}
	want, err := cliRun(o.cli, "-exp", "fleet", "-fleet", strconv.Itoa(small[0]))
	if err != nil {
		m.fail("fleet reference: %v", err)
	} else if ok, diff := sameBytes(want, got); !ok {
		m.fail("fleet n=%d at seed %d differs from -exp fleet: %s", small[0], experiment.FleetSeed, diff)
	}
	if o.seed != experiment.FleetSeed {
		return
	}
	m.attempted++
	want, err = cliRun(o.cli, "-exp", "fleet")
	if err != nil {
		m.fail("fleet reference: %v", err)
	} else if ok, diff := sameBytes(want, m.rendered); !ok {
		m.fail("fleet ladder at seed %d differs from -exp fleet: %s", experiment.FleetSeed, diff)
	}
}

// fleetLayers reduces the traced ladders to per-ladder layer metrics.
func fleetLayers(tr *tracer, ladders [][]fleetCellRun) map[string]float64 {
	totals := tr.totals()
	n := float64(len(ladders))
	perLadder := func(name string) float64 { return totals[name].total.Seconds() / n }
	l := map[string]float64{
		"workload.generate_s":       perLadder("workload.generate"),
		"baselines.place_initial_s": perLadder("baselines.place_initial"),
		"cloud.relaunch_s":          perLadder("cloud.relaunch"),
	}
	for _, arm := range fleetArmNames {
		t := totals["baselines."+arm+".on_interrupted"]
		l["baselines."+arm+".on_interrupted_calls"] = float64(t.count) / n
		l["baselines."+arm+".on_interrupted_self_s"] = t.self.Seconds() / n
	}
	var (
		simSum, parWall, merge         time.Duration
		launches, terms, interruptions int
		events, workloads              uint64
		imbalances                     []float64
	)
	for _, runs := range ladders {
		worst := 0.0
		for _, r := range runs {
			events += r.cell.Res.EventsFired
			workloads += uint64(r.cell.Size)
			var first, lastEnd time.Time
			var cellSim, maxSim time.Duration
			for _, sp := range r.probe.shards {
				launches += sp.launches
				terms += sp.terminations
				interruptions += sp.interruptions
				d := sp.lastTerm.Sub(sp.start)
				cellSim += d
				maxSim = max(maxSim, d)
				if first.IsZero() || sp.start.Before(first) {
					first = sp.start
				}
				if sp.lastTerm.After(lastEnd) {
					lastEnd = sp.lastTerm
				}
			}
			k := len(r.probe.shards)
			if k == 0 {
				continue
			}
			simSum += cellSim
			parWall += time.Duration(k) * lastEnd.Sub(first)
			merge += r.probe.end.Sub(lastEnd)
			worst = max(worst, float64(maxSim)/(float64(cellSim)/float64(k)))
		}
		imbalances = append(imbalances, worst)
	}
	l["experiment.shard_sim_s"] = simSum.Seconds() / n
	l["experiment.merge_s"] = merge.Seconds() / n
	l["experiment.shard_imbalance"] = median(imbalances)
	if parWall > 0 {
		l["experiment.parallel_eff"] = float64(simSum) / float64(parWall)
	}
	l["cloud.launches"] = float64(launches) / n
	l["cloud.terminations"] = float64(terms) / n
	l["cloud.interruptions"] = float64(interruptions) / n
	l["simclock.events_per_wl"] = float64(events) / float64(workloads)
	return l
}
