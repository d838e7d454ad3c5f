// Package market models multi-region spot-instance markets: spot price
// processes, interruption-frequency dynamics, Stability Scores, and Spot
// Placement Scores.
//
// The model reproduces the observable surface SpotVerse consumes on AWS:
//
//   - DescribeSpotPriceHistory-style price series per (instance type, AZ),
//     smooth and slowly mean-reverting as in the post-2017 pricing model;
//   - the Spot Instance Advisor's Interruption Frequency buckets (<5%,
//     5-20%, >20%) and the derived Stability Score (3, 2, 1);
//   - the Spot Placement Score (integer 1-10) per (instance type, region);
//   - a per-hour interruption hazard and a launch-success probability that
//     the cloud substrate draws against.
//
// All processes are deterministic for a given seed and are generated
// lazily but sequentially, so query order never changes the series.
//
// The package is split into a deterministic generator and an immutable,
// concurrency-safe Snapshot (snapshot.go): every series for one
// (catalog, seed, start) triple lives on the Snapshot, materialised in
// fixed-size segments published by atomic pointer swap, so one snapshot
// per seed can back every strategy arm and every parallel worker at
// once with byte-identical values. A Model is a thin per-environment
// view over a snapshot — it carries only the mutable state a single
// experiment owns (injected outages, seasonality) and is still not safe
// for concurrent use itself; sharing happens at the Snapshot level (see
// SnapshotStore in store.go).
//
// Hot-path queries are cached on the snapshot: each (type, region)
// keeps a per-step cheapest-AZ series with prefix sums, so AveragePrice
// answers in O(1) after the window is materialised and RegionSpotPrice
// in O(1) per step, and CheapestSpotRegion rankings are memoized per
// (type, window). The caches never invalidate — walks are append-only,
// so a materialised step can never change.
package market

import (
	"fmt"
	"math"
	"sort"
	"time"

	"spotverse/internal/catalog"
)

// Granularities of the underlying processes.
const (
	// PriceStep is the spot price update interval.
	PriceStep = 6 * time.Hour
	// MetricStep is the advisor metric (IF, SPS) update interval.
	MetricStep = 24 * time.Hour
)

// Stability score values derived from Interruption Frequency buckets
// (Section 3.1 of the paper: <5% → 3, 5-20% → 2, >20% → 1).
const (
	StabilityLow  = 1
	StabilityMid  = 2
	StabilityHigh = 3
)

// hazardScale converts a latent interruption frequency (the advisor's
// monthly fraction) into a per-hour hazard. Calibrated so a frequency of
// 0.26 yields the ~0.135/h rate that reproduces the paper's single-region
// interruption counts (DESIGN.md "Calibration notes").
const hazardScale = 0.52

// Key addresses a (region, instance type) market.
type Key struct {
	Region catalog.Region
	Type   catalog.InstanceType
}

// PricePoint is one sample of a spot price series.
type PricePoint struct {
	Time time.Time
	// USDPerHour is the spot price.
	USDPerHour float64
}

// AdvisorEntry is one row of a Spot-Instance-Advisor-style snapshot.
type AdvisorEntry struct {
	Region catalog.Region
	Type   catalog.InstanceType
	// SpotPriceUSD is the current regional spot price (cheapest AZ).
	SpotPriceUSD float64
	// OnDemandUSD is the regional on-demand price.
	OnDemandUSD float64
	// SavingsOverOnDemand is 1 - spot/on-demand.
	SavingsOverOnDemand float64
	// InterruptionFrequency is the latent monthly interruption fraction.
	InterruptionFrequency float64
	// StabilityScore is 1-3, inverse of the frequency bucket.
	StabilityScore int
	// PlacementScore is the Spot Placement Score, 1-10.
	PlacementScore int
	// CombinedScore is StabilityScore + PlacementScore, the quantity
	// Algorithm 1 thresholds on.
	CombinedScore int
}

// Model is the deterministic multi-region spot market as one
// environment sees it: a view over an immutable Snapshot plus the
// mutable state a single experiment owns.
type Model struct {
	snap *Snapshot

	// seasonal enables hour-of-week hazard modulation (seasonality.go).
	seasonal bool
	// outages are injected regional capacity failures (failure testing):
	// spot launches in an affected region fail for the window's duration.
	outages []outage
}

type outage struct {
	region   catalog.Region
	from, to time.Time
}

// InjectOutage makes spot launches in the region fail during [from, to)
// — a regional capacity event for failure-injection tests. Running
// instances are unaffected (AWS outages rarely reclaim everything); only
// new placements fail. A window that overlaps or abuts an existing
// outage for the same region is merged into a single union window, so
// the outage list stays canonical however injections arrive.
func (m *Model) InjectOutage(r catalog.Region, from, to time.Time) error {
	if !to.After(from) {
		return fmt.Errorf("market: outage window %s..%s inverted", from, to)
	}
	if _, err := m.snap.cat.RegionInfo(r); err != nil {
		return err
	}
	merged := m.outages[:0]
	for _, o := range m.outages {
		// Same region and [from,to) touches [o.from,o.to): fold it into
		// the window being inserted and drop the original.
		if o.region == r && !o.to.Before(from) && !to.Before(o.from) {
			if o.from.Before(from) {
				from = o.from
			}
			if o.to.After(to) {
				to = o.to
			}
			continue
		}
		merged = append(merged, o)
	}
	m.outages = append(merged, outage{region: r, from: from, to: to})
	return nil
}

// InOutage reports whether the region is inside an injected outage.
func (m *Model) InOutage(r catalog.Region, at time.Time) bool {
	for _, o := range m.outages {
		if o.region == r && !at.Before(o.from) && at.Before(o.to) {
			return true
		}
	}
	return false
}

// OutageWindow is one injected outage interval, half-open [From, To).
type OutageWindow struct {
	From, To time.Time
}

// OutageWindows lists the region's injected outage windows sorted by
// start time — after merging, they are pairwise disjoint.
func (m *Model) OutageWindows(r catalog.Region) []OutageWindow {
	var out []OutageWindow
	for _, o := range m.outages {
		if o.region == r {
			out = append(out, OutageWindow{From: o.from, To: o.to})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].From.Before(out[j].From) })
	return out
}

type azKey struct {
	az catalog.AZ
	t  catalog.InstanceType
}

// New returns a market model over the catalog, seeded for determinism,
// with series starting at start. The model owns a private snapshot; use
// FromSnapshot to share one across environments.
func New(cat *catalog.Catalog, seed int64, start time.Time) *Model {
	return &Model{snap: NewSnapshot(cat, seed, start)}
}

// FromSnapshot returns a model view over a shared snapshot. Any number
// of models (one per environment) can read the same snapshot
// concurrently; only the per-model mutable state — injected outages and
// seasonality — is private to each view.
func FromSnapshot(snap *Snapshot) *Model {
	return &Model{snap: snap}
}

// Snapshot exposes the model's underlying immutable market realization.
func (m *Model) Snapshot() *Snapshot { return m.snap }

// Catalog exposes the underlying inventory.
func (m *Model) Catalog() *catalog.Catalog { return m.snap.cat }

// Start reports the first instant the model has data for.
func (m *Model) Start() time.Time { return m.snap.start }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// reliability parameters per tier: latent monthly interruption fraction.
func tierFrequency(tier catalog.ReliabilityTier) float64 {
	switch tier {
	case catalog.TierStable:
		return 0.025
	case catalog.TierModerate:
		return 0.120
	case catalog.TierVolatile:
		return 0.250
	default:
		return 0.285
	}
}

// tierFreqSigma is the walk noise per metric step; stable regions move
// less so they stay inside their advisor bucket over an experiment window.
func tierFreqSigma(tier catalog.ReliabilityTier) float64 {
	if tier == catalog.TierStable {
		return 0.006
	}
	return 0.012
}

// tierSPS is the latent Spot Placement Score midpoint per tier, set well
// inside integer rounding bands so quartet membership is stable across an
// experiment window.
func tierSPS(tier catalog.ReliabilityTier) float64 {
	switch tier {
	case catalog.TierStable:
		return 3.25
	case catalog.TierModerate:
		return 3.20
	case catalog.TierVolatile:
		return 3.30
	default:
		return 2.30
	}
}

// ca-central-1 carries the paper's tension for the m5/r5 families: the
// cheapest spot prices of the bunch, a high placement score (launches
// succeed), yet a bottom interruption-frequency bucket during the
// experiment window. That is exactly the trap Algorithm 1 is built to
// avoid: price- or SPS-only ranking walks straight into it.
const (
	caCentral          = catalog.Region("ca-central-1")
	caCentralFrequency = 0.23
	caCentralSPSLatent = 4.25
)

func caCentralTrapped(t catalog.InstanceType) bool {
	f := t.Family()
	return f == "m5" || f == "r5"
}

// SpotPrice returns the spot price of t in az at the given instant.
func (m *Model) SpotPrice(t catalog.InstanceType, az catalog.AZ, at time.Time) (float64, error) {
	return m.snap.spotPrice(t, az, at)
}

// PriceSeries returns a reusable handle on the (t, az) price walk; see
// the type's doc for the hot path it serves.
func (m *Model) PriceSeries(t catalog.InstanceType, az catalog.AZ) (PriceSeries, error) {
	w, err := m.snap.priceWalk(t, az)
	if err != nil {
		return PriceSeries{}, err
	}
	return PriceSeries{w: w, start: m.snap.start}, nil
}

// PriceStepIndex returns the index of the PriceStep interval holding at,
// counted from the market start; instants before the start fall in step
// 0. Every spot price is constant within one step.
func (m *Model) PriceStepIndex(at time.Time) int {
	return m.snap.stepIndex(at, PriceStep)
}

// RegionSpotPrice returns the cheapest AZ spot price of t in r, and the AZ.
func (m *Model) RegionSpotPrice(t catalog.InstanceType, r catalog.Region, at time.Time) (float64, catalog.AZ, error) {
	return m.snap.regionSpotPrice(t, r, at)
}

// PriceHistory returns the price series of t in az on [from, to] sampled
// every step. It mimics DescribeSpotPriceHistory.
func (m *Model) PriceHistory(t catalog.InstanceType, az catalog.AZ, from, to time.Time, step time.Duration) ([]PricePoint, error) {
	return m.snap.priceHistory(t, az, from, to, step)
}

// InterruptionFrequency returns the latent monthly interruption fraction
// for t in r at the given instant (the advisor's underlying quantity).
func (m *Model) InterruptionFrequency(t catalog.InstanceType, r catalog.Region, at time.Time) (float64, error) {
	return m.snap.interruptionFrequency(t, r, at)
}

// StabilityScore maps the interruption frequency into the paper's 1-3
// score: 3 below 5%, 1 above 20%, 2 between.
func (m *Model) StabilityScore(t catalog.InstanceType, r catalog.Region, at time.Time) (int, error) {
	f, err := m.InterruptionFrequency(t, r, at)
	if err != nil {
		return 0, err
	}
	return StabilityFromFrequency(f), nil
}

// StabilityFromFrequency converts a monthly interruption fraction into the
// 1-3 Stability Score.
func StabilityFromFrequency(f float64) int {
	switch {
	case f < 0.05:
		return StabilityHigh
	case f < 0.20:
		return StabilityMid
	default:
		return StabilityLow
	}
}

// PlacementScore returns the integer Spot Placement Score (1-10) of t in r.
func (m *Model) PlacementScore(t catalog.InstanceType, r catalog.Region, at time.Time) (int, error) {
	v, err := m.PlacementScoreLatent(t, r, at)
	if err != nil {
		return 0, err
	}
	s := int(math.Round(v))
	if s < 1 {
		s = 1
	}
	if s > 10 {
		s = 10
	}
	return s, nil
}

// PlacementScoreLatent returns the continuous SPS process value, used for
// the Fig. 4 time-series plots.
func (m *Model) PlacementScoreLatent(t catalog.InstanceType, r catalog.Region, at time.Time) (float64, error) {
	return m.snap.placementScoreLatent(t, r, at)
}

// CombinedScore is PlacementScore + StabilityScore — the quantity the
// Optimizer thresholds on (Algorithm 1).
func (m *Model) CombinedScore(t catalog.InstanceType, r catalog.Region, at time.Time) (int, error) {
	sps, err := m.PlacementScore(t, r, at)
	if err != nil {
		return 0, err
	}
	st, err := m.StabilityScore(t, r, at)
	if err != nil {
		return 0, err
	}
	return sps + st, nil
}

// HazardPerHour returns the per-hour interruption hazard of a running spot
// instance of t in r at the given instant.
func (m *Model) HazardPerHour(t catalog.InstanceType, r catalog.Region, at time.Time) (float64, error) {
	f, err := m.InterruptionFrequency(t, r, at)
	if err != nil {
		return 0, err
	}
	return f * hazardScale, nil
}

// LaunchSuccessProbability is the chance a spot request is fulfilled on
// its first placement attempt, increasing with the Spot Placement Score
// (AWS documents SPS as exactly this likelihood).
func (m *Model) LaunchSuccessProbability(t catalog.InstanceType, r catalog.Region, at time.Time) (float64, error) {
	if m.InOutage(r, at) {
		return 0, nil
	}
	sps, err := m.PlacementScore(t, r, at)
	if err != nil {
		return 0, err
	}
	p := 0.50 + 0.05*float64(sps)
	return clamp(p, 0, 1), nil
}

// Advisor returns an advisor snapshot row for (t, r).
func (m *Model) Advisor(t catalog.InstanceType, r catalog.Region, at time.Time) (AdvisorEntry, error) {
	spot, _, err := m.RegionSpotPrice(t, r, at)
	if err != nil {
		return AdvisorEntry{}, err
	}
	od, err := m.snap.cat.OnDemandPrice(t, r)
	if err != nil {
		return AdvisorEntry{}, err
	}
	f, err := m.InterruptionFrequency(t, r, at)
	if err != nil {
		return AdvisorEntry{}, err
	}
	sps, err := m.PlacementScore(t, r, at)
	if err != nil {
		return AdvisorEntry{}, err
	}
	st := StabilityFromFrequency(f)
	return AdvisorEntry{
		Region:                r,
		Type:                  t,
		SpotPriceUSD:          spot,
		OnDemandUSD:           od,
		SavingsOverOnDemand:   1 - spot/od,
		InterruptionFrequency: f,
		StabilityScore:        st,
		PlacementScore:        sps,
		CombinedScore:         sps + st,
	}, nil
}

// AdvisorSnapshot returns advisor rows for t across all offering regions,
// ordered by region name.
func (m *Model) AdvisorSnapshot(t catalog.InstanceType, at time.Time) ([]AdvisorEntry, error) {
	regions := m.snap.cat.OfferedRegions(t)
	out := make([]AdvisorEntry, 0, len(regions))
	for _, r := range regions {
		e, err := m.Advisor(t, r, at)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// AveragePrice returns the time-averaged regional spot price of t in r
// over [from, to], used for stable "cheapest region" rankings (Table 1).
//
// The average reads the cached cheapest-AZ prefix sums: after the window
// is materialised the answer is one subtraction instead of a rescan of
// every price step across every AZ. A window whose first step lands on
// the model start reproduces the naive left-to-right summation exactly;
// other alignments agree to float64 rounding (~1e-12 relative).
//
//spotverse:hotpath
func (m *Model) AveragePrice(t catalog.InstanceType, r catalog.Region, from, to time.Time) (float64, error) {
	return m.snap.averagePrice(t, r, from, to)
}

// cheapKey addresses one memoized CheapestSpotRegion ranking.
type cheapKey struct {
	t        catalog.InstanceType
	from, to int64
}

type cheapEntry struct {
	region catalog.Region
	price  float64
}

// CheapestSpotRegion returns the region with the lowest time-averaged spot
// price for t over the window — the paper's per-type "baseline region"
// (Table 1). Rankings are memoized per (type, window): Table 1, Fig. 8 and
// every baseline-region probe ask for the same opening-weeks window over
// and over.
func (m *Model) CheapestSpotRegion(t catalog.InstanceType, from, to time.Time) (catalog.Region, float64, error) {
	return m.snap.cheapestSpotRegion(t, from, to)
}
