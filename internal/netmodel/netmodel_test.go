package netmodel

import (
	"errors"
	"math"
	"testing"

	"repro/internal/units"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Max(math.Abs(want), 1e-12) {
		t.Errorf("%s = %v, want %v (±%v%%)", name, got, want, tol*100)
	}
}

func TestLinkBandwidth(t *testing.T) {
	if LinkBandwidth() != 50*units.GBps {
		t.Fatalf("400Gb/s = %v, want 50GB/s", LinkBandwidth())
	}
	// §II-C: 29 PB takes 580k seconds (6.71 days).
	if got := TransferTime(29 * units.PB); got != 580000 {
		t.Fatalf("transfer time = %v, want 580000", float64(got))
	}
}

func TestReproFig2RouteEnergies(t *testing.T) {
	// Figure 2 (right): energy to move 29 PB over each route, in MJ.
	want := map[Scenario]float64{
		ScenarioA0: 13.92,
		ScenarioA1: 22.97,
		ScenarioA2: 50.05,
		ScenarioB:  174.75,
		ScenarioC:  299.45,
	}
	for s, mj := range want {
		got := s.Power().Energy(29 * units.PB).MJ()
		approx(t, "energy "+s.String(), got, mj, 0.001)
	}
}

func TestScenarioPowers(t *testing.T) {
	// The underlying powers that produce the Figure 2 energies.
	want := map[Scenario]float64{
		ScenarioA0: 24,
		ScenarioA1: 39.6,
		ScenarioA2: 86.29,
		ScenarioB:  301.29,
		ScenarioC:  516.29,
	}
	for s, w := range want {
		approx(t, "power "+s.String(), float64(s.Power().Total()), w, 0.001)
	}
}

func TestScenarioOrderingAndMetadata(t *testing.T) {
	list := Scenarios()
	if len(list) != 5 {
		t.Fatalf("scenario count = %d", len(list))
	}
	var prev units.Watts
	for _, s := range list {
		p := s.Power().Total()
		if p <= prev {
			t.Errorf("powers must strictly increase A0→C; %v ≤ %v at %v", p, prev, s)
		}
		prev = p
		if s.String() == "" || s.Describe() == "unknown" {
			t.Errorf("missing metadata for %v", s)
		}
	}
	if Scenario(99).String() != "Scenario(99)" || Scenario(99).Describe() != "unknown" {
		t.Error("unknown scenario metadata wrong")
	}
	if Scenario(99).Power().Total() != 0 {
		t.Error("unknown scenario power must be 0")
	}
}

func TestSwitchPerPortPowers(t *testing.T) {
	approx(t, "QM9700 passive/port", float64(QM9700.PerPortPassive()), 23.34375, 1e-9)
	approx(t, "QM9700 active/port", float64(QM9700.PerPortActive()), 53.75, 1e-9)
	approx(t, "Cisco passive/port", float64(Cisco9364D.PerPortPassive()), 1324.0/64, 1e-9)
	approx(t, "Cisco active/port", float64(Cisco9364D.PerPortActive()), 3000.0/64, 1e-9)
}

func TestRoutePowerDecomposition(t *testing.T) {
	p := RoutePower{Transceivers: 2, NICs: 2, PassivePorts: 2, ActivePorts: 4}
	want := 2*12 + 2*19.8 + 2*747.0/32 + 4*1720.0/32
	approx(t, "total", float64(p.Total()), want, 1e-12)
	if p.String() == "" {
		t.Error("empty String()")
	}
}

func TestRouteEfficiency(t *testing.T) {
	// A0 moving 29 PB: 29e6 GB / 13.92e6 J ≈ 2.08 GB/J — the number DHL's
	// ~70 GB/J embodied efficiency is compared against.
	eff := ScenarioA0.Power().Efficiency(29 * units.PB)
	approx(t, "A0 efficiency", eff, 29e6/13.92e6, 0.001)
}

func TestFatTreeValidation(t *testing.T) {
	if err := DefaultFatTree().Validate(); err != nil {
		t.Fatalf("default topology invalid: %v", err)
	}
	bad := FatTree{Aisles: 0, RacksPerAisle: 1, NodesPerRack: 1, Switch: QM9700}
	if err := bad.Validate(); err == nil {
		t.Error("zero aisles must be invalid")
	}
	tooWide := FatTree{Aisles: 1, RacksPerAisle: 1, NodesPerRack: 40, Switch: QM9700}
	if err := tooWide.Validate(); err == nil {
		t.Error("rack wider than switch radix must be invalid")
	}
	tooManyRacks := FatTree{Aisles: 1, RacksPerAisle: 40, NodesPerRack: 4, Switch: QM9700}
	if err := tooManyRacks.Validate(); err == nil {
		t.Error("aisle wider than switch radix must be invalid")
	}
}

func TestRouting(t *testing.T) {
	f := DefaultFatTree()
	src := NodeID{0, 0, 0}

	sameRack, err := f.RouteBetween(src, NodeID{0, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sameRack.Hops) != 1 {
		t.Errorf("same-rack switches = %d, want 1", len(sameRack.Hops))
	}

	sameAisle, err := f.RouteBetween(src, NodeID{0, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sameAisle.Hops) != 3 {
		t.Errorf("same-aisle switches = %d, want 3", len(sameAisle.Hops))
	}

	crossAisle, err := f.RouteBetween(src, NodeID{1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(crossAisle.Hops) != 5 {
		t.Errorf("cross-aisle switches = %d, want 5", len(crossAisle.Hops))
	}
	// Core hop present only on cross-aisle routes.
	foundCore := false
	for _, h := range crossAisle.Hops {
		if h.Tier == TierCore {
			foundCore = true
			if h.Aisle != -1 {
				t.Error("core switch must not belong to an aisle")
			}
		}
	}
	if !foundCore {
		t.Error("cross-aisle route must traverse the core")
	}
}

func TestRoutingErrors(t *testing.T) {
	f := DefaultFatTree()
	if _, err := f.RouteBetween(NodeID{0, 0, 0}, NodeID{0, 0, 0}); err == nil {
		t.Error("same node must error")
	}
	if _, err := f.RouteBetween(NodeID{0, 0, 0}, NodeID{9, 0, 0}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("err = %v", err)
	}
	if _, err := f.RouteBetween(NodeID{-1, 0, 0}, NodeID{0, 0, 1}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("err = %v", err)
	}
	bad := FatTree{}
	if _, err := bad.RouteBetween(NodeID{0, 0, 0}, NodeID{0, 0, 1}); err == nil {
		t.Error("invalid topology must error")
	}
}

func TestDerivedScenarioRoutesMatchHardcoded(t *testing.T) {
	// The port decompositions derived by actual fat-tree routing must agree
	// with Scenario.Power() — i.e. the Figure 2 energies are routing output,
	// not constants.
	derived := ScenarioRoutes()
	for _, s := range Scenarios() {
		if got, want := derived[s], s.Power(); got != want {
			t.Errorf("%v: derived %+v != scenario %+v", s, got, want)
		}
	}
}

func TestRoutePowerSymmetry(t *testing.T) {
	// Routing is symmetric in power terms.
	f := DefaultFatTree()
	a, b := NodeID{0, 1, 2}, NodeID{1, 3, 4}
	r1, err := f.RouteBetween(a, b)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.RouteBetween(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Power(false) != r2.Power(false) {
		t.Errorf("asymmetric route power: %+v vs %+v", r1.Power(false), r2.Power(false))
	}
}

func TestPortKindAndNodeStrings(t *testing.T) {
	if PortPassive.String() != "passive" || PortActive.String() != "active" {
		t.Error("port kind strings wrong")
	}
	if (NodeID{1, 2, 3}).String() != "n1.2.3" {
		t.Errorf("node string = %q", NodeID{1, 2, 3}.String())
	}
}

func TestDirectRoutePower(t *testing.T) {
	f := DefaultFatTree()
	d := f.DirectRoute(NodeID{0, 0, 0}, NodeID{0, 0, 1})
	if !d.Direct {
		t.Fatal("DirectRoute must mark Direct")
	}
	if got := d.Power(true); got != (RoutePower{Transceivers: 2}) {
		t.Errorf("minimal direct = %+v", got)
	}
	if got := d.Power(false); got != (RoutePower{NICs: 2}) {
		t.Errorf("NIC direct = %+v", got)
	}
}
