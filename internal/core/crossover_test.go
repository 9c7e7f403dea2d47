package core

import (
	"testing"

	"repro/internal/netmodel"
	"repro/internal/units"
)

// TestDHLWinsAtExactBreakEven pins the boundary semantics of DHLWins: the
// DHL wins at exactly the break-even dataset size (the comparison is ≥, not
// >), loses one byte below it, and loses just past the cart's capacity.
func TestDHLWinsAtExactBreakEven(t *testing.T) {
	r, err := Crossover(MinimumSpecConfig(), netmodel.ScenarioA0)
	if err != nil {
		t.Fatal(err)
	}
	if r.BreakEvenDataset <= 0 {
		t.Fatalf("break-even = %v, want positive", r.BreakEvenDataset)
	}
	cap := r.Config.Cart.Capacity()
	if r.BreakEvenDataset > cap {
		t.Fatalf("minimum-spec break-even %v exceeds the cart capacity %v", r.BreakEvenDataset, cap)
	}
	cases := []struct {
		name    string
		dataset units.Bytes
		want    bool
	}{
		{"exactly break-even", r.BreakEvenDataset, true},
		{"one byte below", r.BreakEvenDataset - 1, false},
		{"exactly capacity", cap, true},
		{"one byte over capacity", cap + 1, false},
	}
	for _, tc := range cases {
		if got := r.DHLWins(tc.dataset); got != tc.want {
			t.Errorf("%s (%v): DHLWins = %v, want %v", tc.name, tc.dataset, got, tc.want)
		}
	}
}

func TestMinimumSpecSearch(t *testing.T) {
	base := MinimumSpecConfig()
	// A small grid around the paper's §V-E operating point. The 200 m/s
	// points are unrealisable on a 10 m track (the ramps alone need 40 m),
	// so the search must mark them invalid rather than fail.
	g := FineGrid{
		Speeds:  []units.MetresPerSecond{10, 20, 200},
		Lengths: []units.Metres{10, 50},
		SSDs:    []int{1, 2, 4},
	}
	dataset := 360 * units.GB
	res, err := MinimumSpecSearch(base, g, dataset, netmodel.ScenarioA0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != g.Size() {
		t.Fatalf("points = %d, want %d", len(res.Points), g.Size())
	}
	var invalid, wins int
	for _, p := range res.Points {
		if !p.Valid {
			invalid++
			if p.Wins {
				t.Fatalf("invalid point %v marked as winning", p.Config)
			}
			continue
		}
		if p.Wins != p.Crossover.DHLWins(dataset) {
			t.Fatalf("point %v: Wins inconsistent with DHLWins", p.Config)
		}
		if p.Wins {
			wins++
		}
	}
	if invalid == 0 {
		t.Fatal("expected the 100 m/s × 10 m points to be unrealisable")
	}
	if wins == 0 || res.Best == nil {
		t.Fatalf("no winning point (invalid=%d)", invalid)
	}
	// §V-E: a slow, short, one-SSD DHL already beats the single optical
	// link around 360 GB — the minimum spec must be a one-SSD cart.
	if n := res.Best.Config.Cart.Config.NumSSDs; n != 1 {
		t.Errorf("best spec uses %d SSDs, want 1 (%v)", n, res.Best.Config)
	}
	if _, err := MinimumSpecSearch(base, g, 0, netmodel.ScenarioA0); err == nil {
		t.Fatal("zero dataset: want error")
	}
	if _, err := MinimumSpecSearch(base, FineGrid{}, dataset, netmodel.ScenarioA0); err == nil {
		t.Fatal("empty grid: want error")
	}
}
