// Package baselines implements the comparison strategies the paper
// evaluates SpotVerse against: the traditional single-region spot
// deployment, pure on-demand, a SkyPilot-style cheapest-price-first
// multi-region manager, and the naive fixed-set multi-region round-robin
// of the motivational experiment (Fig. 3).
package baselines

import (
	"errors"
	"fmt"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/cloud"
	"spotverse/internal/market"
	"spotverse/internal/simclock"
	"spotverse/internal/strategy"
)

// Errors returned by the constructors.
var (
	ErrNoRegions  = errors.New("baselines: no regions supplied")
	ErrNotOffered = errors.New("baselines: instance type not offered in region")
)

// SingleRegion keeps every workload on spot in one region forever — the
// paper's "traditional single-region deployment" baseline.
type SingleRegion struct {
	region catalog.Region
}

var _ strategy.Strategy = (*SingleRegion)(nil)

// NewSingleRegion validates the region offers the type and returns the
// strategy.
func NewSingleRegion(cat *catalog.Catalog, t catalog.InstanceType, r catalog.Region) (*SingleRegion, error) {
	if !cat.Offered(t, r) {
		return nil, fmt.Errorf("single-region %s/%s: %w", t, r, ErrNotOffered)
	}
	return &SingleRegion{region: r}, nil
}

// Name implements strategy.Strategy.
func (s *SingleRegion) Name() string { return "single-region" }

// PlaceInitial implements strategy.Strategy.
func (s *SingleRegion) PlaceInitial(ids []string) (map[string]strategy.Placement, error) {
	out := make(map[string]strategy.Placement, len(ids))
	for _, id := range ids {
		out[id] = strategy.Placement{Region: s.region, Lifecycle: cloud.LifecycleSpot}
	}
	return out, nil
}

// OnInterrupted relaunches in the same region: single-region deployments
// have nowhere else to go.
func (s *SingleRegion) OnInterrupted(_ string, _ catalog.Region, relaunch strategy.RelaunchFunc) error {
	relaunch(strategy.Placement{Region: s.region, Lifecycle: cloud.LifecycleSpot})
	return nil
}

// OnDemand runs everything on on-demand instances in the cheapest
// on-demand region — the paper's reliability ceiling / cost comparator.
type OnDemand struct {
	region catalog.Region
}

var _ strategy.Strategy = (*OnDemand)(nil)

// NewOnDemand picks the cheapest on-demand region for the type.
func NewOnDemand(cat *catalog.Catalog, t catalog.InstanceType) (*OnDemand, error) {
	r, _, err := cat.CheapestOnDemand(t)
	if err != nil {
		return nil, fmt.Errorf("on-demand: %w", err)
	}
	return &OnDemand{region: r}, nil
}

// Name implements strategy.Strategy.
func (s *OnDemand) Name() string { return "on-demand" }

// Region reports the chosen region.
func (s *OnDemand) Region() catalog.Region { return s.region }

// PlaceInitial implements strategy.Strategy.
func (s *OnDemand) PlaceInitial(ids []string) (map[string]strategy.Placement, error) {
	out := make(map[string]strategy.Placement, len(ids))
	for _, id := range ids {
		out[id] = strategy.Placement{Region: s.region, Lifecycle: cloud.LifecycleOnDemand}
	}
	return out, nil
}

// OnInterrupted never fires for on-demand instances; if it somehow does,
// relaunch on-demand again.
func (s *OnDemand) OnInterrupted(_ string, _ catalog.Region, relaunch strategy.RelaunchFunc) error {
	relaunch(strategy.Placement{Region: s.region, Lifecycle: cloud.LifecycleOnDemand})
	return nil
}

// SkyPilotLike reproduces the comparison framework of Section 5.2.5: an
// intercloud broker that always chases the globally cheapest spot price,
// both at launch and when relaunching after a preemption. It reads the
// live market the way SkyPilot's optimizer queries cloud pricing
// catalogs; reliability metrics play no part, which is exactly the
// behavioural difference the paper measures.
//
// Spot prices move only on market.PriceStep boundaries, so the cheapest
// region is a function of the price-step index alone. The broker
// resolves its offered-region list once and memoises the winner per
// step; a relaunch inside an already-priced step is a slice load, with
// no market lookup and no allocation.
type SkyPilotLike struct {
	eng *simclock.Engine
	mkt *market.Model
	t   catalog.InstanceType

	// regions lists the regions offering t, sorted.
	regions []catalog.Region
	// cheapest[k] is 1 + the index in regions of price step k's cheapest
	// region, or 0 while step k is unpriced.
	cheapest []int32
}

var _ strategy.Strategy = (*SkyPilotLike)(nil)

// NewSkyPilotLike builds the broker over the live market.
func NewSkyPilotLike(eng *simclock.Engine, mkt *market.Model, t catalog.InstanceType) (*SkyPilotLike, error) {
	if _, err := mkt.Catalog().Spec(t); err != nil {
		return nil, err
	}
	return &SkyPilotLike{eng: eng, mkt: mkt, t: t, regions: mkt.Catalog().OfferedRegions(t)}, nil
}

// cheapestNow finds the globally cheapest spot region at this instant.
func (s *SkyPilotLike) cheapestNow() (catalog.Region, error) {
	return s.cheapestAt(s.eng.Now())
}

// cheapestAt returns the cheapest spot region at an instant: the first
// region, in sorted order, with the strictly lowest price. Instants
// before the market start share step 0, as they do in the snapshot.
func (s *SkyPilotLike) cheapestAt(at time.Time) (catalog.Region, error) {
	k := s.mkt.PriceStepIndex(at)
	if k < len(s.cheapest) && s.cheapest[k] > 0 {
		return s.regions[s.cheapest[k]-1], nil
	}
	best := -1
	var bestPrice float64
	for i, r := range s.regions {
		p, _, err := s.mkt.RegionSpotPrice(s.t, r, at)
		if err != nil {
			return "", err
		}
		if best < 0 || p < bestPrice {
			best, bestPrice = i, p
		}
	}
	if best < 0 {
		return "", fmt.Errorf("skypilot: %s offered nowhere", s.t)
	}
	if k >= len(s.cheapest) {
		s.cheapest = append(s.cheapest, make([]int32, k+1-len(s.cheapest))...)
	}
	s.cheapest[k] = int32(best + 1)
	return s.regions[best], nil
}

// Name implements strategy.Strategy.
func (s *SkyPilotLike) Name() string { return "skypilot" }

// PlaceInitial puts every workload in the currently cheapest region.
func (s *SkyPilotLike) PlaceInitial(ids []string) (map[string]strategy.Placement, error) {
	r, err := s.cheapestNow()
	if err != nil {
		return nil, err
	}
	out := make(map[string]strategy.Placement, len(ids))
	for _, id := range ids {
		out[id] = strategy.Placement{Region: r, Lifecycle: cloud.LifecycleSpot}
	}
	return out, nil
}

// OnInterrupted relaunches in the cheapest region at failure time — which
// may well be the region that just preempted the workload.
func (s *SkyPilotLike) OnInterrupted(_ string, _ catalog.Region, relaunch strategy.RelaunchFunc) error {
	r, err := s.cheapestNow()
	if err != nil {
		return err
	}
	relaunch(strategy.Placement{Region: r, Lifecycle: cloud.LifecycleSpot})
	return nil
}

// NaiveMultiRegion distributes workloads round-robin over a fixed region
// list and relaunches interrupted workloads in a random region of the
// same list — the motivational experiment's multi-region setup, with no
// reliability awareness.
type NaiveMultiRegion struct {
	regions []catalog.Region
	rng     *simclock.RNG
}

var _ strategy.Strategy = (*NaiveMultiRegion)(nil)

// NewNaiveMultiRegion validates the region list.
func NewNaiveMultiRegion(cat *catalog.Catalog, t catalog.InstanceType, regions []catalog.Region, seed int64) (*NaiveMultiRegion, error) {
	if len(regions) == 0 {
		return nil, ErrNoRegions
	}
	for _, r := range regions {
		if !cat.Offered(t, r) {
			return nil, fmt.Errorf("naive-multi %s/%s: %w", t, r, ErrNotOffered)
		}
	}
	cp := make([]catalog.Region, len(regions))
	copy(cp, regions)
	return &NaiveMultiRegion{regions: cp, rng: simclock.Stream(seed, "naive-multi")}, nil
}

// Name implements strategy.Strategy.
func (s *NaiveMultiRegion) Name() string { return "naive-multi-region" }

// PlaceInitial round-robins over the fixed list.
func (s *NaiveMultiRegion) PlaceInitial(ids []string) (map[string]strategy.Placement, error) {
	out := make(map[string]strategy.Placement, len(ids))
	for i, id := range ids {
		out[id] = strategy.Placement{Region: s.regions[i%len(s.regions)], Lifecycle: cloud.LifecycleSpot}
	}
	return out, nil
}

// OnInterrupted relaunches in a random region of the list.
func (s *NaiveMultiRegion) OnInterrupted(_ string, _ catalog.Region, relaunch strategy.RelaunchFunc) error {
	relaunch(strategy.Placement{Region: simclock.Pick(s.rng, s.regions), Lifecycle: cloud.LifecycleSpot})
	return nil
}
