// Package faults is the deterministic, seed-driven fault-injection engine
// for the DHL system simulation. §III-D argues DHLs are viable because
// failures can be ameliorated cheaply — "if an SSD fails in-flight ... RAID
// and backups can ameliorate the issue", the library "offers an easy
// solution to remove the carts for repair" — but that claim is only
// testable if the simulation can *produce* those failures on demand, across
// every physical layer, and reproduce them byte-identically from a seed.
//
// The package defines a fault taxonomy (SSD death, cart stall/derail,
// vacuum leak, docking-station failure, LIM power loss), fault scripts
// (explicit schedules or named scenarios generated from a seeded
// *rand.Rand), and an Injector that arms a script on the shared
// discrete-event kernel (internal/sim) and applies each fault to a Target
// at its scheduled time. All randomness is confined to script *generation*
// with an explicit seed; injection itself is pure replay, so the same
// script produces the same event log on every run — the determinism
// contract the repository's dhllint toolchain enforces statically.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/track"
	"repro/internal/units"
)

// Kind classifies a fault by the physical layer it strikes.
type Kind int

const (
	// SSDFailure kills one SSD on a cart (§III-D in-flight failure).
	SSDFailure Kind = iota
	// CartStall stalls a cart (or drops debris) on a rail direction,
	// blocking the track segment until cleared.
	CartStall
	// VacuumLeak raises the tube pressure, forcing degraded-speed launches
	// until the leak is sealed (§IV-B vacuum maintenance).
	VacuumLeak
	// DockFailure takes one endpoint docking station out of service
	// (connector damage, §VI connector longevity).
	DockFailure
	// LIMPowerLoss de-energises the LIM serving one launch direction; no
	// launches that way until power returns.
	LIMPowerLoss
	// JunctionFailure takes one campus station/junction out of service: no
	// departures from it and the router excludes it until repair. Carts
	// already inbound may still arrive (the tube physically ends there).
	JunctionFailure
	// TubeSegmentFailure kills one directed tube segment of a campus
	// network (LIM de-energised or tube breached): no new entries, and
	// carts mid-segment coast to a protected stop until the repair clears
	// them through.
	TubeSegmentFailure

	numKinds
)

// NumKinds is the number of fault kinds in the taxonomy.
const NumKinds = int(numKinds)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case SSDFailure:
		return "ssd-failure"
	case CartStall:
		return "cart-stall"
	case VacuumLeak:
		return "vacuum-leak"
	case DockFailure:
		return "dock-failure"
	case LIMPowerLoss:
		return "lim-power-loss"
	case JunctionFailure:
		return "junction-failure"
	case TubeSegmentFailure:
		return "tube-segment-failure"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds returns every fault kind in taxonomy order.
func Kinds() []Kind {
	ks := make([]Kind, numKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// Fault is one scheduled fault. Which target fields are meaningful depends
// on Kind; Validate enforces the pairing.
type Fault struct {
	Kind Kind
	// At is the injection time on the simulation clock.
	At units.Seconds
	// Duration is the outage window; repair fires at At+Duration. Zero
	// means the fault is instantaneous (SSDFailure: the device stays dead
	// until serviced at the library, no separate repair event).
	Duration units.Seconds
	// Cart targets SSDFailure and cart-bound CartStall faults. For
	// CartStall, track.NoCart means debris on the segment rather than a
	// specific stalled cart.
	Cart track.CartID
	// Device is the SSD index within the cart's array (SSDFailure).
	Device int
	// Station is the endpoint docking-station index (DockFailure) or the
	// campus station/junction index (JunctionFailure).
	Station int
	// Segment is the campus tube-segment index (TubeSegmentFailure).
	Segment int
	// Direction is the rail direction (CartStall, LIMPowerLoss).
	Direction track.Direction
	// Pressure is the tube pressure while a VacuumLeak is open, in
	// pascals.
	Pressure float64
}

// Errors returned by fault and script validation.
var (
	ErrBadFault  = errors.New("faults: invalid fault")
	ErrBadScript = errors.New("faults: invalid script")
)

// Dims describes a deployment's dimensions for fault validation and
// scenario generation. Segments is the number of directed tube segments in
// a campus topology; zero means a point-to-point deployment, where
// campus-only faults (JunctionFailure, TubeSegmentFailure) are invalid.
type Dims struct {
	Carts          int
	Stations       int
	DevicesPerCart int
	Segments       int
}

// ValidateDims checks the fault against a deployment's dimensions.
func (f Fault) ValidateDims(d Dims) error {
	numCarts, numStations, devicesPerCart := d.Carts, d.Stations, d.DevicesPerCart
	if f.At < 0 {
		return fmt.Errorf("%w: negative injection time %v", ErrBadFault, f.At)
	}
	if f.Duration < 0 {
		return fmt.Errorf("%w: negative duration %v", ErrBadFault, f.Duration)
	}
	switch f.Kind {
	case SSDFailure:
		if f.Cart < 0 || int(f.Cart) >= numCarts {
			return fmt.Errorf("%w: ssd-failure cart %d outside fleet of %d", ErrBadFault, f.Cart, numCarts)
		}
		if f.Device < 0 || f.Device >= devicesPerCart {
			return fmt.Errorf("%w: ssd-failure device %d outside %d-device array", ErrBadFault, f.Device, devicesPerCart)
		}
	case CartStall:
		if f.Cart != track.NoCart && (f.Cart < 0 || int(f.Cart) >= numCarts) {
			return fmt.Errorf("%w: cart-stall cart %d outside fleet of %d", ErrBadFault, f.Cart, numCarts)
		}
		if f.Duration <= 0 {
			return fmt.Errorf("%w: cart-stall needs a positive clearing time", ErrBadFault)
		}
	case VacuumLeak:
		if f.Pressure <= 0 {
			return fmt.Errorf("%w: vacuum-leak needs positive pressure, got %v Pa", ErrBadFault, f.Pressure)
		}
		if f.Duration <= 0 {
			return fmt.Errorf("%w: vacuum-leak needs a positive sealing time", ErrBadFault)
		}
	case DockFailure:
		if f.Station < 0 || f.Station >= numStations {
			return fmt.Errorf("%w: dock-failure station %d outside bank of %d", ErrBadFault, f.Station, numStations)
		}
		if f.Duration <= 0 {
			return fmt.Errorf("%w: dock-failure needs a positive repair time", ErrBadFault)
		}
	case LIMPowerLoss:
		if f.Duration <= 0 {
			return fmt.Errorf("%w: lim-power-loss needs a positive restore time", ErrBadFault)
		}
	case JunctionFailure:
		if f.Station < 0 || f.Station >= numStations {
			return fmt.Errorf("%w: junction-failure station %d outside campus of %d", ErrBadFault, f.Station, numStations)
		}
		if f.Duration <= 0 {
			return fmt.Errorf("%w: junction-failure needs a positive repair time", ErrBadFault)
		}
	case TubeSegmentFailure:
		if d.Segments < 1 {
			return fmt.Errorf("%w: tube-segment-failure needs a campus deployment (no tube segments)", ErrBadFault)
		}
		if f.Segment < 0 || f.Segment >= d.Segments {
			return fmt.Errorf("%w: tube-segment-failure segment %d outside network of %d", ErrBadFault, f.Segment, d.Segments)
		}
		if f.Duration <= 0 {
			return fmt.Errorf("%w: tube-segment-failure needs a positive repair time", ErrBadFault)
		}
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrBadFault, int(f.Kind))
	}
	return nil
}

// target renders the kind-specific target fields.
func (f Fault) target() string {
	switch f.Kind {
	case SSDFailure:
		return fmt.Sprintf("cart=%d dev=%d", f.Cart, f.Device)
	case CartStall:
		if f.Cart == track.NoCart {
			return fmt.Sprintf("debris dir=%v", f.Direction)
		}
		return fmt.Sprintf("cart=%d dir=%v", f.Cart, f.Direction)
	case VacuumLeak:
		return fmt.Sprintf("pressure=%gPa", f.Pressure)
	case DockFailure:
		return fmt.Sprintf("station=%d", f.Station)
	case LIMPowerLoss:
		return fmt.Sprintf("dir=%v", f.Direction)
	case JunctionFailure:
		return fmt.Sprintf("junction=%d", f.Station)
	case TubeSegmentFailure:
		return fmt.Sprintf("segment=%d", f.Segment)
	default:
		return ""
	}
}

// String renders the fault as a stable, log-friendly line fragment.
func (f Fault) String() string {
	s := fmt.Sprintf("%v %s", f.Kind, f.target())
	if f.Duration > 0 {
		s += fmt.Sprintf(" for %gs", float64(f.Duration))
	}
	return s
}

// Script is a named, time-ordered fault schedule. The zero value is an
// empty script (no faults).
type Script struct {
	Name   string
	Faults []Fault
}

// ValidateDims checks every fault against the deployment's dimensions.
func (s Script) ValidateDims(d Dims) error {
	for i, f := range s.Faults {
		if err := f.ValidateDims(d); err != nil {
			return fmt.Errorf("%w: script %q fault %d: %v", ErrBadScript, s.Name, i, err)
		}
	}
	return nil
}

// Sorted returns the faults in injection order (stable by At, preserving
// authoring order for ties).
func (s Script) Sorted() []Fault {
	out := append([]Fault(nil), s.Faults...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Scenario names, in the order Scenarios lists them.
const (
	ScenarioSSDStorm        = "ssd-storm"
	ScenarioLeakyTube       = "leaky-tube"
	ScenarioBlockedTrack    = "blocked-track"
	ScenarioBrownout        = "brownout"
	ScenarioRoughDay        = "rough-day"
	ScenarioCampusPartition = "campus-partition"
)

// Scenario is one named chaos scenario.
type Scenario struct {
	Name string
	// Desc is the one-line description -chaos help and its unknown-name
	// message print.
	Desc string
	// gen draws the scenario's faults.
	gen func(g *generator) []Fault
}

// scenarios is the one table of named chaos scenarios.
var scenarios = []Scenario{
	{ScenarioSSDStorm, "a burst of in-flight SSD deaths",
		func(g *generator) []Fault { return g.ssdFailures(12) }},
	{ScenarioLeakyTube, "repeated vacuum leaks of varying severity",
		func(g *generator) []Fault { return g.vacuumLeaks(4) }},
	{ScenarioBlockedTrack, "cart stalls and debris on the rail",
		func(g *generator) []Fault { return g.stalls(6) }},
	{ScenarioBrownout, "LIM power losses and dock-station failures",
		func(g *generator) []Fault { return append(g.limLosses(4), g.dockFailures(3)...) }},
	{ScenarioRoughDay, "all of the above at once, at lower per-kind rates",
		func(g *generator) []Fault {
			var fs []Fault
			fs = append(fs, g.ssdFailures(5)...)
			fs = append(fs, g.vacuumLeaks(2)...)
			fs = append(fs, g.stalls(3)...)
			fs = append(fs, g.limLosses(2)...)
			return append(fs, g.dockFailures(2)...)
		}},
	// Campus-only: it needs Dims.Segments.
	{ScenarioCampusPartition, "junction and tube-segment failures carving a campus apart (-campus only)",
		func(g *generator) []Fault { return append(g.junctionFailures(3), g.segmentFailures(6)...) }},
}

// Scenarios lists the named chaos scenarios.
func Scenarios() []Scenario { return slices.Clone(scenarios) }

// ScenarioNames lists the named chaos scenarios' names.
func ScenarioNames() []string {
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		names[i] = sc.Name
	}
	return names
}

// ErrUnknownScenario is returned for scenario names outside ScenarioNames.
var ErrUnknownScenario = errors.New("faults: unknown scenario")

// ScenarioDims generates a named chaos script for a deployment of the
// given dimensions over [0, horizon]. Generation draws only from a
// *rand.Rand seeded with seed, so a (name, seed, horizon, dims) tuple
// always yields the identical script — the replayable unit of a chaos
// experiment.
func ScenarioDims(name string, seed int64, horizon units.Seconds, d Dims) (Script, error) {
	if horizon <= 0 {
		return Script{}, fmt.Errorf("%w: horizon must be positive, got %v", ErrBadScript, horizon)
	}
	if d.Carts < 1 || d.Stations < 1 || d.DevicesPerCart < 1 {
		return Script{}, fmt.Errorf("%w: deployment dimensions must be positive", ErrBadScript)
	}
	if name == ScenarioCampusPartition && d.Segments < 1 {
		return Script{}, fmt.Errorf("%w: scenario %q needs a campus deployment (Dims.Segments >= 1)", ErrBadScript, name)
	}
	i := slices.IndexFunc(scenarios, func(sc Scenario) bool { return sc.Name == name })
	if i < 0 {
		return Script{}, fmt.Errorf("%w: %q (known: %v)", ErrUnknownScenario, name, ScenarioNames())
	}
	g := generator{rng: rand.New(rand.NewSource(seed)), horizon: horizon, carts: d.Carts, stations: d.Stations, devices: d.DevicesPerCart, segments: d.Segments}
	s := Script{Name: name, Faults: Script{Faults: scenarios[i].gen(&g)}.Sorted()}
	if err := s.ValidateDims(d); err != nil {
		return Script{}, err
	}
	return s, nil
}

// generator draws scenario faults from one seeded source. Each kind uses
// exponential inter-arrival times with mean horizon/expected, so expected
// counts land on average but every draw stays inside the horizon.
type generator struct {
	rng      *rand.Rand
	horizon  units.Seconds
	carts    int
	stations int
	devices  int
	segments int
}

// arrivals samples injection times over the horizon with the given
// expected count.
func (g *generator) arrivals(expected int) []units.Seconds {
	mean := float64(g.horizon) / float64(expected)
	var out []units.Seconds
	t := 0.0
	for {
		t += g.rng.ExpFloat64() * mean
		if t >= float64(g.horizon) {
			return out
		}
		out = append(out, units.Seconds(t))
	}
}

// window samples an outage duration in [lo, hi) fractions of the horizon.
func (g *generator) window(lo, hi float64) units.Seconds {
	f := lo + g.rng.Float64()*(hi-lo)
	return units.Seconds(f * float64(g.horizon))
}

func (g *generator) ssdFailures(expected int) []Fault {
	var out []Fault
	for _, t := range g.arrivals(expected) {
		out = append(out, Fault{
			Kind:   SSDFailure,
			At:     t,
			Cart:   track.CartID(g.rng.Intn(g.carts)),
			Device: g.rng.Intn(g.devices),
		})
	}
	return out
}

func (g *generator) vacuumLeaks(expected int) []Fault {
	var out []Fault
	for _, t := range g.arrivals(expected) {
		// Severity is log-uniform from a minor leak (50× rough vacuum) to
		// a major breach approaching one atmosphere.
		p := 5e3 * math.Pow(101325.0/5e3, g.rng.Float64())
		out = append(out, Fault{
			Kind:     VacuumLeak,
			At:       t,
			Duration: g.window(0.05, 0.20),
			Pressure: p,
		})
	}
	return out
}

func (g *generator) stalls(expected int) []Fault {
	var out []Fault
	for _, t := range g.arrivals(expected) {
		cart := track.NoCart
		if g.rng.Float64() < 0.5 {
			cart = track.CartID(g.rng.Intn(g.carts))
		}
		out = append(out, Fault{
			Kind:      CartStall,
			At:        t,
			Duration:  g.window(0.02, 0.10),
			Cart:      cart,
			Direction: track.Direction(g.rng.Intn(2)),
		})
	}
	return out
}

func (g *generator) limLosses(expected int) []Fault {
	var out []Fault
	for _, t := range g.arrivals(expected) {
		out = append(out, Fault{
			Kind:      LIMPowerLoss,
			At:        t,
			Duration:  g.window(0.03, 0.12),
			Direction: track.Direction(g.rng.Intn(2)),
		})
	}
	return out
}

func (g *generator) junctionFailures(expected int) []Fault {
	var out []Fault
	for _, t := range g.arrivals(expected) {
		out = append(out, Fault{
			Kind:     JunctionFailure,
			At:       t,
			Duration: g.window(0.08, 0.25),
			Station:  g.rng.Intn(g.stations),
		})
	}
	return out
}

func (g *generator) segmentFailures(expected int) []Fault {
	var out []Fault
	for _, t := range g.arrivals(expected) {
		out = append(out, Fault{
			Kind:     TubeSegmentFailure,
			At:       t,
			Duration: g.window(0.05, 0.20),
			Segment:  g.rng.Intn(g.segments),
		})
	}
	return out
}

func (g *generator) dockFailures(expected int) []Fault {
	var out []Fault
	for _, t := range g.arrivals(expected) {
		out = append(out, Fault{
			Kind:     DockFailure,
			At:       t,
			Duration: g.window(0.05, 0.15),
			Station:  g.rng.Intn(g.stations),
		})
	}
	return out
}
