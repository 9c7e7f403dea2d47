package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/units"
)

// renderRows flattens Table VI rows through their string formatting, so a
// comparison catches any byte-level divergence a reader of the tables would
// see (reflect.DeepEqual separately catches structural divergence).
func renderRows(rows []TableVIRow) string {
	s := ""
	for _, r := range rows {
		s += r.Launch.String() + "\n"
		s += fmt.Sprintf("%v %d %d %v %v\n", r.Transfer.Dataset,
			r.Transfer.DeliveryTrips, r.Transfer.TotalTrips, r.Transfer.Time, r.Transfer.Energy)
		for _, c := range r.Comparisons {
			s += fmt.Sprintf("%v %v %v %v %v\n", c.Scenario, c.NetworkTime, c.NetworkEnergy,
				c.TimeSpeedup, c.EnergyReduction)
		}
	}
	return s
}

// TestDesignSpaceMatchesPlainLoop checks that every Table VI row is the
// configuration's bulk transfer and its five network comparisons, down to
// the rendered bytes.
func TestDesignSpaceMatchesPlainLoop(t *testing.T) {
	var want []TableVIRow
	for _, c := range DesignSpaceConfigs() {
		tr, err := Transfer(c, PaperDataset)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, TableVIRow{Launch: tr.Launch, Transfer: tr, Comparisons: CompareAll(tr)})
	}
	got, err := DesignSpace()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("design space diverges from the plain loop")
	}
	if g, w := renderRows(got), renderRows(want); g != w {
		t.Fatalf("rendered rows differ:\n%s\nvs\n%s", g, w)
	}
}

// TestAblationsMatchPlainLoop checks the three swept ablations against
// handwritten loops over Launch.
func TestAblationsMatchPlainLoop(t *testing.T) {
	base := DefaultConfig()

	dockTimes := []units.Seconds{0, 1, 2, 3, 4, 5}
	var wantDock []DockSensitivityRow
	for _, d := range dockTimes {
		c := base
		c.DockTime, c.UndockTime = d, d
		l, err := Launch(c)
		if err != nil {
			t.Fatal(err)
		}
		wantDock = append(wantDock, DockSensitivityRow{DockTime: d, Launch: l, DockShare: float64(2*d) / float64(l.Time)})
	}

	accels := []units.MetresPerSecond2{250, 500, 1000, 2000}
	var wantAccel []AccelerationRow
	fastest := units.Seconds(0)
	for i, a := range accels {
		c := base
		c.Acceleration = a
		l, err := Launch(c)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 || l.Time < fastest {
			fastest = l.Time
		}
		wantAccel = append(wantAccel, AccelerationRow{Acceleration: a, Launch: l, LIMLength: c.LIM.RequiredLength(c.MaxSpeed, a)})
	}
	for i := range wantAccel {
		wantAccel[i].ExtraTime = wantAccel[i].Launch.Time - fastest
	}

	regens := []float64{0, 0.16, 0.3, 0.5, 0.7}
	baseline, err := Launch(base)
	if err != nil {
		t.Fatal(err)
	}
	var wantRegen []RegenRow
	for _, g := range regens {
		c := base
		c.LIM.RegenEfficiency = g
		l, err := Launch(c)
		if err != nil {
			t.Fatal(err)
		}
		wantRegen = append(wantRegen, RegenRow{Regen: g, Energy: l.Energy,
			Saving: units.Ratio(float64(baseline.Energy) / float64(l.Energy))})
	}

	gotDock, err := DockTimeSensitivity(base, dockTimes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotDock, wantDock) {
		t.Fatal("dock ablation diverges from the plain loop")
	}
	gotAccel, err := AccelerationTradeoff(base, accels)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotAccel, wantAccel) {
		t.Fatal("acceleration ablation diverges from the plain loop")
	}
	gotRegen, err := RegenerativeBrakingSavings(base, regens)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRegen, wantRegen) {
		t.Fatal("regen ablation diverges from the plain loop")
	}
}

func TestDockTimeSensitivityRejectsNegative(t *testing.T) {
	if _, err := DockTimeSensitivity(DefaultConfig(), []units.Seconds{3, -1}); err == nil {
		t.Fatal("negative dock time: want error")
	}
}

// TestFineDesignSpaceContainsTableVI pins the "special case" claim: every
// one of the 13 Table VI rows appears, identically evaluated, among the 27
// points of the Table V factorial.
func TestFineDesignSpaceContainsTableVI(t *testing.T) {
	fine, err := FullFactorialSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(fine) != 27 {
		t.Fatalf("Table V factorial has %d rows, want 27", len(fine))
	}
	paper, err := DesignSpace()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range paper {
		found := false
		for _, f := range fine {
			if f.Launch.Config.String() == row.Launch.Config.String() {
				found = true
				if f.Launch.String() != row.Launch.String() {
					t.Fatalf("row %d (%v): grid evaluation differs: %v vs %v",
						i, row.Launch.Config, f.Launch, row.Launch)
				}
				break
			}
		}
		if !found {
			t.Fatalf("Table VI row %d (%v) missing from the Table V factorial", i, row.Launch.Config)
		}
	}
}
