package experiment

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/workload"
)

// mergeShardsSorted is the reference reduction mergeShards replaced: it
// concatenates every shard's logs, stable-sorts the cost log by global
// index, sorts the launch and stop stamps, and replays them. mergeShards
// must agree with it bit for bit.
func mergeShardsSorted(cfg *FleetShardedConfig, outs []*shardOut) *FleetResult {
	f := cfg.Fleet
	n := f.Len()
	buckets := int(cfg.Horizon/cfg.Interval) + 1
	res := &FleetResult{
		InstanceType:             cfg.InstanceType,
		Workloads:                n,
		InterruptionsByRegion:    make(map[catalog.Region]int),
		LaunchesByRegion:         make(map[catalog.Region]int),
		Interval:                 cfg.Interval,
		CompletionsPerInterval:   make([]int, buckets),
		InterruptionsPerInterval: make([]int, buckets),
	}

	var costs []indexedCost
	var launches, stops []int64
	for _, o := range outs {
		if o.strategyName != "" {
			res.StrategyName = o.strategyName
			res.Start = time.Unix(0, o.startNs).UTC()
		}
		res.Completed += o.completed
		res.Interruptions += o.interruptions
		res.OnDemandLaunches += o.onDemandLaunches
		res.DuplicateRelaunches += o.duplicateRelaunches
		for r, c := range o.interruptionsByRegion {
			res.InterruptionsByRegion[r] += c
		}
		for r, c := range o.launchesByRegion {
			res.LaunchesByRegion[r] += c
		}
		for i, c := range o.completionsPerInterval {
			res.CompletionsPerInterval[i] += c
		}
		for i, c := range o.interruptionsPerInterval {
			res.InterruptionsPerInterval[i] += c
		}
		res.EventsFired += o.firedAdj
		res.ServiceCostUSD += o.serviceCostUSD
		costs = append(costs, o.costLog...)
		launches = append(launches, o.launchNs...)
		stops = append(stops, o.stopNs...)
	}

	sort.SliceStable(costs, func(i, j int) bool { return costs[i].gidx < costs[j].gidx })
	for _, c := range costs {
		res.InstanceCostUSD += c.usd
	}
	res.TotalCostUSD = res.InstanceCostUSD + res.ServiceCostUSD

	sort.Slice(launches, func(i, j int) bool { return launches[i] < launches[j] })
	sort.Slice(stops, func(i, j int) bool { return stops[i] < stops[j] })
	running, j := 0, 0
	for _, t := range launches {
		for j < len(stops) && stops[j] <= t {
			running--
			j++
		}
		running++
		if running > res.PeakRunning {
			res.PeakRunning = running
		}
	}

	if res.Completed > 0 {
		var sum float64
		lastNs := int64(0)
		startNs := res.Start.UnixNano()
		for i := 0; i < n; i++ {
			if !f.Completed[i] {
				continue
			}
			at := f.CompletedAtNanos[i]
			sum += time.Duration(at - startNs).Hours()
			if at > lastNs {
				lastNs = at
			}
		}
		res.MeanCompletionHours = sum / float64(res.Completed)
		res.MakespanHours = time.Duration(lastNs - startNs).Hours()
	}
	return res
}

var mergeTestRegions = []catalog.Region{"ca-central-1", "eu-north-1", "us-east-1"}

// randomShardRun builds a fleet of n workloads split over `shards`
// contiguous shards, with random but internally consistent per-shard
// outputs: costs logged in random termination order with magnitudes
// spread wide enough that a reordered float sum changes bits, and
// ascending launch/stop stamps drawn from a few instants so equal-time
// ties are common within and across shards.
func randomShardRun(rng *rand.Rand, n, shards int) (*FleetShardedConfig, []*shardOut) {
	const start = int64(1_700_000_000_000_000_000)
	cfg := &FleetShardedConfig{
		Fleet: &workload.FleetState{
			Durations:        make([]time.Duration, n),
			Completed:        make([]bool, n),
			CompletedAtNanos: make([]int64, n),
		},
		InstanceType:    catalog.M5XLarge,
		Horizon:         6 * time.Hour,
		Interval:        time.Hour,
		AllowIncomplete: true,
	}
	buckets := int(cfg.Horizon/cfg.Interval) + 1
	stamps := func(k int) []int64 {
		s := make([]int64, k)
		for i := range s {
			s[i] = start + int64(rng.Intn(6))*int64(time.Hour)
		}
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s
	}
	outs := make([]*shardOut, shards)
	for k := range outs {
		lo, hi := workload.ShardBounds(n, shards, k)
		if lo == hi {
			outs[k] = &shardOut{}
			continue
		}
		o := &shardOut{
			strategyName:             "arm",
			startNs:                  start,
			base:                     lo,
			n:                        hi - lo,
			interruptionsByRegion:    make(map[catalog.Region]int),
			launchesByRegion:         make(map[catalog.Region]int),
			completionsPerInterval:   make([]int, buckets),
			interruptionsPerInterval: make([]int, buckets),
			onDemandLaunches:         rng.Intn(3),
			duplicateRelaunches:      rng.Intn(3),
			firedAdj:                 uint64(rng.Intn(1000)),
			serviceCostUSD:           rng.Float64(),
		}
		for i := lo; i < hi; i++ {
			if rng.Intn(3) > 0 {
				at := start + rng.Int63n(int64(cfg.Horizon))
				cfg.Fleet.Completed[i] = true
				cfg.Fleet.CompletedAtNanos[i] = at
				o.completed++
				o.completionsPerInterval[int(time.Duration(at-start)/cfg.Interval)]++
			}
		}
		o.interruptions = rng.Intn(2 * (hi - lo))
		for i := 0; i < o.interruptions; i++ {
			o.interruptionsByRegion[mergeTestRegions[rng.Intn(len(mergeTestRegions))]]++
			o.interruptionsPerInterval[rng.Intn(buckets)]++
		}
		for i := rng.Intn(4 * (hi - lo)); i > 0; i-- {
			usd := rng.Float64() * math.Pow(10, float64(rng.Intn(12)-6))
			o.costLog = append(o.costLog, indexedCost{gidx: lo + rng.Intn(hi-lo), usd: usd})
		}
		tracked := rng.Intn(3 * (hi - lo))
		o.launchNs, o.stopNs = stamps(tracked), stamps(tracked)
		for _, t := range o.launchNs {
			o.launchesByRegion[mergeTestRegions[int(t/int64(time.Hour))%len(mergeTestRegions)]]++
		}
		outs[k] = o
	}
	return cfg, outs
}

// TestMergeShardsMatchesSortedReference checks the linear merge against
// the sort-based reduction over random shard outputs: one shard, empty
// shards, more shards than workloads, and equal-instant launch/stop
// ties. The results must be deeply equal, instance cost to the bit.
func TestMergeShardsMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		shards := 1 + rng.Intn(n+4)
		if trial%5 == 0 {
			shards = 1
		}
		cfg, outs := randomShardRun(rng, n, shards)
		want := mergeShardsSorted(cfg, outs)
		got, err := mergeShards(cfg, outs)
		if err != nil {
			t.Fatalf("trial %d (n=%d shards=%d): %v", trial, n, shards, err)
		}
		if math.Float64bits(got.InstanceCostUSD) != math.Float64bits(want.InstanceCostUSD) {
			t.Fatalf("trial %d (n=%d shards=%d): instance cost %v, reference %v",
				trial, n, shards, got.InstanceCostUSD, want.InstanceCostUSD)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d shards=%d): merged\n%+v\nreference\n%+v", trial, n, shards, got, want)
		}
	}
}

// TestMergeShardsConservation checks that mergeShards rejects shard
// outputs whose totals contradict their logs or breakdowns.
func TestMergeShardsConservation(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(o *shardOut)
	}{
		{"launch without stop", func(o *shardOut) { o.launchNs = append(o.launchNs, o.launchNs[len(o.launchNs)-1]) }},
		{"more completed than workloads", func(o *shardOut) {
			o.completed += 100
			o.completionsPerInterval[0] += 100
		}},
		{"interruptions by region", func(o *shardOut) {
			o.interruptions++
			o.interruptionsPerInterval[0]++
		}},
		{"interruptions per interval", func(o *shardOut) {
			o.interruptions++
			o.interruptionsByRegion["us-east-1"]++
		}},
		{"completions per interval", func(o *shardOut) { o.completionsPerInterval[0]++ }},
		{"launch stamps out of order", func(o *shardOut) { o.launchNs, o.stopNs = []int64{20, 10}, []int64{1, 2} }},
		{"stop stamps out of order", func(o *shardOut) { o.launchNs, o.stopNs = []int64{10, 20}, []int64{5, 3} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, outs := randomShardRun(rand.New(rand.NewSource(2)), 10, 2)
			o := outs[1]
			if len(o.launchNs) == 0 {
				t.Fatal("fixture has no tracked launches")
			}
			if _, err := mergeShards(cfg, outs); err != nil {
				t.Fatalf("consistent outputs rejected: %v", err)
			}
			tc.corrupt(o)
			if _, err := mergeShards(cfg, outs); !errors.Is(err, ErrMergeConservation) {
				t.Fatalf("err = %v, want ErrMergeConservation", err)
			}
		})
	}
}
