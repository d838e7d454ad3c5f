package baselines

import (
	"errors"
	"testing"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/cloud"
	"spotverse/internal/market"
	"spotverse/internal/simclock"
	"spotverse/internal/strategy"
)

func testMarket(seed int64) (*simclock.Engine, *market.Model) {
	eng := simclock.NewEngine()
	return eng, market.New(catalog.Default(), seed, simclock.Epoch)
}

func TestSingleRegionPlacesEverythingThere(t *testing.T) {
	cat := catalog.Default()
	s, err := NewSingleRegion(cat, catalog.M5XLarge, "ca-central-1")
	if err != nil {
		t.Fatal(err)
	}
	placements, err := s.PlaceInitial([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	for id, p := range placements {
		if p.Region != "ca-central-1" || p.Lifecycle != cloud.LifecycleSpot {
			t.Fatalf("%s: %+v", id, p)
		}
	}
	var got strategy.Placement
	if err := s.OnInterrupted("a", "ca-central-1", func(p strategy.Placement) { got = p }); err != nil {
		t.Fatal(err)
	}
	if got.Region != "ca-central-1" {
		t.Fatalf("relaunched in %s", got.Region)
	}
}

func TestSingleRegionValidates(t *testing.T) {
	cat := catalog.Default()
	if _, err := NewSingleRegion(cat, catalog.P32XLarge, "ca-central-1"); !errors.Is(err, ErrNotOffered) {
		t.Fatalf("err = %v", err)
	}
}

func TestOnDemandPicksCheapestRegion(t *testing.T) {
	cat := catalog.Default()
	s, err := NewOnDemand(cat, catalog.M5XLarge)
	if err != nil {
		t.Fatal(err)
	}
	wantRegion, _, err := cat.CheapestOnDemand(catalog.M5XLarge)
	if err != nil {
		t.Fatal(err)
	}
	if s.Region() != wantRegion {
		t.Fatalf("region = %s, want %s", s.Region(), wantRegion)
	}
	placements, _ := s.PlaceInitial([]string{"a"})
	if placements["a"].Lifecycle != cloud.LifecycleOnDemand {
		t.Fatalf("placement = %+v", placements["a"])
	}
}

func TestSkyPilotChasesCheapestPrice(t *testing.T) {
	eng, mkt := testMarket(3)
	s, err := NewSkyPilotLike(eng, mkt, catalog.M5XLarge)
	if err != nil {
		t.Fatal(err)
	}
	placements, err := s.PlaceInitial([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	chosen := placements["a"].Region
	// Verify it is the global price argmin right now.
	for _, r := range mkt.Catalog().OfferedRegions(catalog.M5XLarge) {
		p, _, err := mkt.RegionSpotPrice(catalog.M5XLarge, r, eng.Now())
		if err != nil {
			t.Fatal(err)
		}
		pc, _, _ := mkt.RegionSpotPrice(catalog.M5XLarge, chosen, eng.Now())
		if p < pc {
			t.Fatalf("chose %s but %s is cheaper (%v < %v)", chosen, r, p, pc)
		}
	}
	// ca-central-1 carries the lowest baseline m5.xlarge price, so the
	// broker should walk straight into the paper's trap.
	if chosen != "ca-central-1" {
		t.Logf("note: cheapest at epoch is %s (market noise)", chosen)
	}
	var re strategy.Placement
	if err := s.OnInterrupted("a", chosen, func(p strategy.Placement) { re = p }); err != nil {
		t.Fatal(err)
	}
	if re.Lifecycle != cloud.LifecycleSpot {
		t.Fatalf("relaunch = %+v", re)
	}
}

func TestNaiveMultiRegionRoundRobin(t *testing.T) {
	cat := catalog.Default()
	regions := []catalog.Region{"ap-northeast-3", "ca-central-1", "eu-north-1"}
	s, err := NewNaiveMultiRegion(cat, catalog.M5XLarge, regions, 1)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"w0", "w1", "w2", "w3", "w4", "w5"}
	placements, err := s.PlaceInitial(ids)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[catalog.Region]int{}
	for _, p := range placements {
		counts[p.Region]++
	}
	for _, r := range regions {
		if counts[r] != 2 {
			t.Fatalf("counts = %v", counts)
		}
	}
	// Relaunch always lands inside the fixed set.
	for i := 0; i < 30; i++ {
		var got strategy.Placement
		_ = s.OnInterrupted("w0", "ca-central-1", func(p strategy.Placement) { got = p })
		found := false
		for _, r := range regions {
			if got.Region == r {
				found = true
			}
		}
		if !found {
			t.Fatalf("relaunched outside the set: %s", got.Region)
		}
	}
}

func TestNaiveMultiRegionValidates(t *testing.T) {
	cat := catalog.Default()
	if _, err := NewNaiveMultiRegion(cat, catalog.M5XLarge, nil, 1); !errors.Is(err, ErrNoRegions) {
		t.Fatalf("err = %v", err)
	}
	if _, err := NewNaiveMultiRegion(cat, catalog.P32XLarge, []catalog.Region{"ca-central-1"}, 1); !errors.Is(err, ErrNotOffered) {
		t.Fatalf("err = %v", err)
	}
}

// scanCheapest is the uncached reference for SkyPilotLike's memo: it
// rebuilds the offered-region list and prices every region at the
// instant, keeping the first region with the strictly lowest price.
func scanCheapest(t *testing.T, mkt *market.Model, it catalog.InstanceType, at time.Time) catalog.Region {
	t.Helper()
	var (
		best      catalog.Region
		bestPrice float64
	)
	for _, r := range mkt.Catalog().OfferedRegions(it) {
		p, _, err := mkt.RegionSpotPrice(it, r, at)
		if err != nil {
			t.Fatal(err)
		}
		if best == "" || p < bestPrice {
			best, bestPrice = r, p
		}
	}
	return best
}

// TestSkyPilotMemoMatchesScan checks the per-price-step memo against
// an uncached scan: hourly relaunch decisions over a 14-day horizon
// driven through the engine clock, then direct queries before the
// market start and on either side of every step boundary, answered
// both from a warm memo and from a fresh broker filled in reverse.
func TestSkyPilotMemoMatchesScan(t *testing.T) {
	const horizon = 14 * 24 * time.Hour
	for _, seed := range []int64{3, 9, 42} {
		for _, it := range []catalog.InstanceType{catalog.M5XLarge, catalog.P32XLarge} {
			eng, mkt := testMarket(seed)
			s, err := NewSkyPilotLike(eng, mkt, it)
			if err != nil {
				t.Fatal(err)
			}
			for h := time.Duration(0); h <= horizon; h += time.Hour {
				if _, err := eng.ScheduleAt(simclock.Epoch.Add(h), "relaunch", func() {
					var got strategy.Placement
					if err := s.OnInterrupted("a", "", func(p strategy.Placement) { got = p }); err != nil {
						t.Fatal(err)
					}
					if want := scanCheapest(t, mkt, it, eng.Now()); got.Region != want {
						t.Errorf("seed %d %s at %v: relaunch in %s, scan says %s", seed, it, eng.Now(), got.Region, want)
					}
				}); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Run(simclock.Epoch.Add(horizon + time.Hour)); err != nil {
				t.Fatal(err)
			}

			var ats []time.Time
			for _, d := range []time.Duration{-7 * 24 * time.Hour, -time.Hour, -1} {
				ats = append(ats, simclock.Epoch.Add(d))
			}
			for step := time.Duration(0); step <= horizon; step += market.PriceStep {
				ats = append(ats, simclock.Epoch.Add(step-1), simclock.Epoch.Add(step), simclock.Epoch.Add(step+1))
			}
			cold, err := NewSkyPilotLike(eng, mkt, it)
			if err != nil {
				t.Fatal(err)
			}
			check := func(b *SkyPilotLike, at time.Time) {
				got, err := b.cheapestAt(at)
				if err != nil {
					t.Fatal(err)
				}
				if want := scanCheapest(t, mkt, it, at); got != want {
					t.Errorf("seed %d %s at %v: memo %s, scan %s", seed, it, at, got, want)
				}
			}
			for _, at := range ats {
				check(s, at)
			}
			for i := len(ats) - 1; i >= 0; i-- {
				check(cold, ats[i])
			}
		}
	}
}

// TestSkyPilotMemoHitAllocatesNothing pins the relaunch fast path: once
// a price step is memoised, a relaunch decision inside it allocates
// nothing.
func TestSkyPilotMemoHitAllocatesNothing(t *testing.T) {
	eng, mkt := testMarket(42)
	s, err := NewSkyPilotLike(eng, mkt, catalog.M5XLarge)
	if err != nil {
		t.Fatal(err)
	}
	var got strategy.Placement
	relaunch := func(p strategy.Placement) { got = p }
	if err := s.OnInterrupted("a", "", relaunch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := s.OnInterrupted("a", "", relaunch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("memoised relaunch decision allocates %.1f times, want 0", allocs)
	}
	if want := scanCheapest(t, mkt, catalog.M5XLarge, eng.Now()); got.Region != want {
		t.Errorf("relaunch in %s, scan says %s", got.Region, want)
	}
}
