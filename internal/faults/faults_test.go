package faults

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/track"
	"repro/internal/units"
)

func TestKindStringsAndTaxonomyOrder(t *testing.T) {
	want := []string{"ssd-failure", "cart-stall", "vacuum-leak", "dock-failure", "lim-power-loss", "junction-failure", "tube-segment-failure"}
	ks := Kinds()
	if len(ks) != NumKinds || NumKinds != len(want) {
		t.Fatalf("Kinds() = %v (NumKinds=%d), want %d kinds", ks, NumKinds, len(want))
	}
	for i, k := range ks {
		if k.String() != want[i] {
			t.Errorf("Kind(%d).String() = %q, want %q", i, k, want[i])
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("out-of-range kind renders %q", got)
	}
}

func TestFaultValidate(t *testing.T) {
	const carts, stations, devices = 4, 2, 16
	cases := []struct {
		name string
		f    Fault
		ok   bool
	}{
		{"ssd ok", Fault{Kind: SSDFailure, Cart: 3, Device: 15}, true},
		{"ssd cart out of fleet", Fault{Kind: SSDFailure, Cart: 4}, false},
		{"ssd device out of array", Fault{Kind: SSDFailure, Device: 16}, false},
		{"negative time", Fault{Kind: SSDFailure, At: -1}, false},
		{"negative duration", Fault{Kind: SSDFailure, Duration: -1}, false},
		{"stall ok", Fault{Kind: CartStall, Cart: 0, Duration: 5}, true},
		{"stall debris ok", Fault{Kind: CartStall, Cart: track.NoCart, Duration: 5}, true},
		{"stall zero clearing time", Fault{Kind: CartStall, Cart: 0}, false},
		{"stall cart out of fleet", Fault{Kind: CartStall, Cart: 9, Duration: 5}, false},
		{"leak ok", Fault{Kind: VacuumLeak, Pressure: 1e4, Duration: 10}, true},
		{"leak zero pressure", Fault{Kind: VacuumLeak, Duration: 10}, false},
		{"leak zero sealing time", Fault{Kind: VacuumLeak, Pressure: 1e4}, false},
		{"dock ok", Fault{Kind: DockFailure, Station: 1, Duration: 3}, true},
		{"dock station out of bank", Fault{Kind: DockFailure, Station: 2, Duration: 3}, false},
		{"dock zero repair time", Fault{Kind: DockFailure, Station: 0}, false},
		{"lim ok", Fault{Kind: LIMPowerLoss, Duration: 2}, true},
		{"lim zero restore time", Fault{Kind: LIMPowerLoss}, false},
		{"junction ok", Fault{Kind: JunctionFailure, Station: 1, Duration: 4}, true},
		{"junction station out of campus", Fault{Kind: JunctionFailure, Station: 2, Duration: 4}, false},
		{"junction zero repair time", Fault{Kind: JunctionFailure, Station: 0}, false},
		{"segment needs campus dims", Fault{Kind: TubeSegmentFailure, Segment: 0, Duration: 4}, false},
		{"unknown kind", Fault{Kind: Kind(42), Duration: 1}, false},
	}
	for _, c := range cases {
		err := c.f.ValidateDims(Dims{Carts: carts, Stations: stations, DevicesPerCart: devices})
		if (err == nil) != c.ok {
			t.Errorf("%s: ValidateDims(%+v) = %v, want ok=%v", c.name, c.f, err, c.ok)
		}
		if err != nil && !errors.Is(err, ErrBadFault) {
			t.Errorf("%s: error %v must wrap ErrBadFault", c.name, err)
		}
	}
}

func TestFaultValidateDimsCampus(t *testing.T) {
	d := Dims{Carts: 4, Stations: 24, DevicesPerCart: 16, Segments: 10}
	cases := []struct {
		name string
		f    Fault
		ok   bool
	}{
		{"segment ok", Fault{Kind: TubeSegmentFailure, Segment: 9, Duration: 4}, true},
		{"segment out of network", Fault{Kind: TubeSegmentFailure, Segment: 10, Duration: 4}, false},
		{"segment negative", Fault{Kind: TubeSegmentFailure, Segment: -1, Duration: 4}, false},
		{"segment zero repair time", Fault{Kind: TubeSegmentFailure, Segment: 0}, false},
		{"junction ok on campus", Fault{Kind: JunctionFailure, Station: 23, Duration: 4}, true},
	}
	for _, c := range cases {
		err := c.f.ValidateDims(d)
		if (err == nil) != c.ok {
			t.Errorf("%s: ValidateDims(%+v) = %v, want ok=%v", c.name, c.f, err, c.ok)
		}
		if err != nil && !errors.Is(err, ErrBadFault) {
			t.Errorf("%s: error %v must wrap ErrBadFault", c.name, err)
		}
	}
}

func TestScriptValidateWrapsBadScript(t *testing.T) {
	s := Script{Name: "bad", Faults: []Fault{{Kind: VacuumLeak}}}
	err := s.ValidateDims(Dims{Carts: 1, Stations: 1, DevicesPerCart: 1})
	if !errors.Is(err, ErrBadScript) {
		t.Fatalf("ValidateDims = %v, want ErrBadScript", err)
	}
	if !strings.Contains(err.Error(), `"bad" fault 0`) {
		t.Errorf("error should name the script and index: %v", err)
	}
}

func TestScriptSortedIsStableAndNonDestructive(t *testing.T) {
	s := Script{Faults: []Fault{
		{Kind: LIMPowerLoss, At: 5, Duration: 1},
		{Kind: SSDFailure, At: 2, Device: 0},
		{Kind: SSDFailure, At: 2, Device: 1}, // tie with the previous: authoring order must hold
		{Kind: DockFailure, At: 1, Duration: 1},
	}}
	got := s.Sorted()
	if got[0].Kind != DockFailure || got[1].Device != 0 || got[2].Device != 1 || got[3].Kind != LIMPowerLoss {
		t.Errorf("Sorted() = %+v", got)
	}
	if s.Faults[0].Kind != LIMPowerLoss {
		t.Error("Sorted() must not mutate the script")
	}
}

func TestScenarioDeterministicAcrossCalls(t *testing.T) {
	const horizon = units.Seconds(100)
	// Campus dims satisfy every scenario, including campus-partition.
	dims := Dims{Carts: 4, Stations: 4, DevicesPerCart: 16, Segments: 8}
	for _, name := range ScenarioNames() {
		a, err := ScenarioDims(name, 7, horizon, dims)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := ScenarioDims(name, 7, horizon, dims)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same (seed, horizon, dims) produced different scripts:\n%+v\nvs\n%+v", name, a, b)
		}
		if len(a.Faults) == 0 {
			t.Errorf("%s: scenario generated no faults over %v", name, horizon)
		}
		for i, f := range a.Faults {
			if f.At < 0 || f.At >= horizon {
				t.Errorf("%s fault %d: At=%v outside [0, %v)", name, i, f.At, horizon)
			}
			if i > 0 && f.At < a.Faults[i-1].At {
				t.Errorf("%s: faults not time-ordered at %d", name, i)
			}
		}
		if err := a.ValidateDims(dims); err != nil {
			t.Errorf("%s: generated script fails its own validation: %v", name, err)
		}
	}
}

// pointToPoint is a 4-cart, 4-station deployment with no campus segments.
var pointToPoint = Dims{Carts: 4, Stations: 4, DevicesPerCart: 16}

func TestScenarioCampusPartitionNeedsSegments(t *testing.T) {
	// A point-to-point deployment (Segments=0) must reject the campus-only
	// scenario with a clear error.
	if _, err := ScenarioDims(ScenarioCampusPartition, 1, 100, pointToPoint); !errors.Is(err, ErrBadScript) {
		t.Errorf("point-to-point campus-partition: %v, want ErrBadScript", err)
	}
	s, err := ScenarioDims(ScenarioCampusPartition, 1, 100, Dims{Carts: 4, Stations: 24, DevicesPerCart: 16, Segments: 12})
	if err != nil {
		t.Fatal(err)
	}
	var junctions, segments int
	for _, f := range s.Faults {
		switch f.Kind {
		case JunctionFailure:
			junctions++
		case TubeSegmentFailure:
			segments++
		default:
			t.Errorf("campus-partition generated non-campus fault %v", f.Kind)
		}
	}
	if junctions == 0 || segments == 0 {
		t.Errorf("campus-partition should mix junction (%d) and segment (%d) failures", junctions, segments)
	}
}

func TestScenarioSeedsDiverge(t *testing.T) {
	a, err := ScenarioDims(ScenarioRoughDay, 1, 100, pointToPoint)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScenarioDims(ScenarioRoughDay, 2, 100, pointToPoint)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Error("different seeds produced identical rough-day scripts")
	}
}

func TestScenarioRejectsBadInputs(t *testing.T) {
	if _, err := ScenarioDims("meteor-shower", 1, 100, pointToPoint); !errors.Is(err, ErrUnknownScenario) {
		t.Errorf("unknown scenario: %v", err)
	}
	if _, err := ScenarioDims(ScenarioSSDStorm, 1, 0, pointToPoint); !errors.Is(err, ErrBadScript) {
		t.Errorf("zero horizon: %v", err)
	}
	if _, err := ScenarioDims(ScenarioSSDStorm, 1, 100, Dims{Carts: 0, Stations: 4, DevicesPerCart: 16}); !errors.Is(err, ErrBadScript) {
		t.Errorf("zero carts: %v", err)
	}
}

// recordingTarget captures the order faults arrive in.
type recordingTarget struct {
	events []string
}

func (r *recordingTarget) Inject(f Fault)  { r.events = append(r.events, "inject:"+f.Kind.String()) }
func (r *recordingTarget) Recover(f Fault) { r.events = append(r.events, "recover:"+f.Kind.String()) }

func TestNewInjectorRejectsNils(t *testing.T) {
	eng := sim.New()
	if _, err := NewInjector(nil, &recordingTarget{}, Script{}); err == nil {
		t.Error("nil engine must be rejected")
	}
	if _, err := NewInjector(eng, nil, Script{}); err == nil {
		t.Error("nil target must be rejected")
	}
}

func TestInjectorReplaysScriptInOrder(t *testing.T) {
	eng := sim.New()
	tgt := &recordingTarget{}
	script := Script{Name: "unit", Faults: []Fault{
		{Kind: VacuumLeak, At: 10, Duration: 5, Pressure: 1e4},
		{Kind: SSDFailure, At: 1, Cart: 0, Device: 0},
		{Kind: LIMPowerLoss, At: 2, Duration: 20, Direction: track.Outbound},
	}}
	inj, err := NewInjector(eng, tgt, script)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Arm(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	wantTarget := []string{
		"inject:ssd-failure",     // t=1
		"inject:lim-power-loss",  // t=2
		"inject:vacuum-leak",     // t=10
		"recover:vacuum-leak",    // t=15
		"recover:lim-power-loss", // t=22
	}
	if !reflect.DeepEqual(tgt.events, wantTarget) {
		t.Errorf("target saw %v, want %v", tgt.events, wantTarget)
	}
	lines := inj.LogLines()
	wantLog := []string{
		"t=1.000s inject ssd-failure cart=0 dev=0",
		"t=2.000s inject lim-power-loss dir=outbound for 20s",
		"t=10.000s inject vacuum-leak pressure=10000Pa for 5s",
		"t=15.000s recover vacuum-leak pressure=10000Pa for 5s",
		"t=22.000s recover lim-power-loss dir=outbound for 20s",
	}
	if !reflect.DeepEqual(lines, wantLog) {
		t.Errorf("log lines:\n%v\nwant:\n%v", strings.Join(lines, "\n"), strings.Join(wantLog, "\n"))
	}
	// Downtime is the union of [2,22] and [10,15] — the leak is fully
	// inside the LIM outage and must not double-count.
	if d := inj.Downtime(); d != 20 {
		t.Errorf("Downtime = %v, want 20 (union of overlapping windows)", d)
	}
	sum := inj.Summary()
	if sum.Total != 3 {
		t.Errorf("Summary.Total = %d, want 3", sum.Total)
	}
	if len(sum.PerKind) != NumKinds {
		t.Fatalf("Summary.PerKind has %d rows, want fixed taxonomy of %d", len(sum.PerKind), NumKinds)
	}
	for i, ks := range sum.PerKind {
		if ks.Kind != Kind(i) {
			t.Errorf("PerKind[%d].Kind = %v; summary must stay in taxonomy order", i, ks.Kind)
		}
	}
	if ks := sum.PerKind[VacuumLeak]; ks.Injected != 1 || ks.Recovered != 1 || ks.Downtime != 5 {
		t.Errorf("vacuum-leak stats = %+v", ks)
	}
	if ks := sum.PerKind[SSDFailure]; ks.Injected != 1 || ks.Recovered != 0 || ks.Downtime != 0 {
		t.Errorf("ssd-failure stats = %+v (instantaneous faults never recover)", ks)
	}
}

func TestInjectorDowntimeCountsOpenInterval(t *testing.T) {
	eng := sim.New()
	inj, err := NewInjector(eng, &recordingTarget{}, Script{Faults: []Fault{
		{Kind: DockFailure, At: 5, Duration: 100, Station: 0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Arm(); err != nil {
		t.Fatal(err)
	}
	// Advance to t=30: the outage began at 5 and is still open.
	eng.MustAfter(30, "probe", func() {})
	eng.RunUntil(30)
	if d := inj.Downtime(); d != 25 {
		t.Errorf("Downtime mid-outage = %v, want 25", d)
	}
}

func TestInjectNowStampsEngineTime(t *testing.T) {
	eng := sim.New()
	tgt := &recordingTarget{}
	inj, err := NewInjector(eng, tgt, Script{})
	if err != nil {
		t.Fatal(err)
	}
	eng.MustAfter(7, "roll", func() {
		inj.InjectNow(Fault{Kind: SSDFailure, Cart: 0, Device: 3})
	})
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	log := inj.log
	if len(log) != 1 || log[0].T != 7 || log[0].Fault.At != 7 {
		t.Fatalf("log = %+v, want one record stamped t=7", log)
	}
	if len(tgt.events) != 1 || tgt.events[0] != "inject:ssd-failure" {
		t.Errorf("target saw %v", tgt.events)
	}
}
