// Package fleet manages a DHL cart fleet's wear and maintenance: the
// §III-B.6 library "offers an easy solution to remove the carts for repair
// in the case of maintenance or failure", and §VI observes that connector
// choice dominates service life — "USB-C connectors (which can physically
// carry PCIe) are designed for 10K-20k plug/unplug cycles, making them a
// good choice for repeated docking and undocking, compared to M.2's 100s of
// cycles."
//
// The model tracks per-cart docking cycles against the connector rating,
// schedules preventive connector replacement at a service threshold, and
// reports fleet availability for a given duty cycle.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/bench/_twin/internal/track"
	"repro/bench/_twin/internal/units"
)

// Connector is a docking connector technology.
type Connector struct {
	Name string
	// RatedCycles is the designed mating-cycle life.
	RatedCycles int
	// ReplaceCost per cart, USD.
	ReplaceCost units.USD
	// ReplaceTime the cart spends out of service per replacement.
	ReplaceTime units.Seconds
}

// §VI connector catalogue.
var (
	// USBC is the paper's recommendation: 10k–20k cycles (we carry the
	// conservative end).
	USBC = Connector{Name: "USB-C", RatedCycles: 10000, ReplaceCost: 40, ReplaceTime: 1800}
	// M2Edge is the raw M.2 edge connector: "100s of cycles".
	M2Edge = Connector{Name: "M.2 edge", RatedCycles: 300, ReplaceCost: 25, ReplaceTime: 3600}
)

// Validate checks the connector.
func (c Connector) Validate() error {
	if c.RatedCycles < 1 || c.ReplaceCost < 0 || c.ReplaceTime < 0 {
		return fmt.Errorf("fleet: connector %q parameters invalid", c.Name)
	}
	return nil
}

// Policy is the preventive-maintenance policy.
type Policy struct {
	// ServiceFraction of rated cycles at which the connector is replaced
	// (e.g. 0.8 → replace at 80 % of rated life).
	ServiceFraction float64
}

// DefaultPolicy services at 80 % of rated life.
func DefaultPolicy() Policy { return Policy{ServiceFraction: 0.8} }

// Fleet tracks wear for a set of carts.
type Fleet struct {
	Connector Connector
	Policy    Policy

	cycles       map[track.CartID]int
	replacements map[track.CartID]int
}

// New builds a fleet tracker for n carts.
func New(connector Connector, policy Policy, n int) (*Fleet, error) {
	if err := connector.Validate(); err != nil {
		return nil, err
	}
	if policy.ServiceFraction <= 0 || policy.ServiceFraction > 1 {
		return nil, errors.New("fleet: service fraction must be in (0,1]")
	}
	if n < 1 {
		return nil, errors.New("fleet: need at least one cart")
	}
	f := &Fleet{
		Connector:    connector,
		Policy:       policy,
		cycles:       make(map[track.CartID]int, n),
		replacements: make(map[track.CartID]int, n),
	}
	for i := 0; i < n; i++ {
		f.cycles[track.CartID(i)] = 0
	}
	return f, nil
}

// ErrUnknownCart is returned for carts outside the fleet.
var ErrUnknownCart = errors.New("fleet: unknown cart")

// serviceThreshold is the cycle count triggering replacement.
func (f *Fleet) serviceThreshold() int {
	return int(math.Ceil(f.Policy.ServiceFraction * float64(f.Connector.RatedCycles)))
}

// RecordDock counts one mating cycle for a cart and reports whether the
// cart is now due for connector service.
func (f *Fleet) RecordDock(id track.CartID) (dueForService bool, err error) {
	if _, ok := f.cycles[id]; !ok {
		//dhllint:allow allocflow -- unknown-cart rejection is a caller bug, never the steady dock loop
		return false, fmt.Errorf("%w: %d", ErrUnknownCart, id)
	}
	//dhllint:allow allocflow -- key pre-registered at construction; the increment rewrites an existing bucket
	f.cycles[id]++
	return f.cycles[id] >= f.serviceThreshold(), nil
}

// Service replaces a cart's connector, resetting its cycle count, and
// returns the cost and downtime incurred.
func (f *Fleet) Service(id track.CartID) (units.USD, units.Seconds, error) {
	if _, ok := f.cycles[id]; !ok {
		return 0, 0, fmt.Errorf("%w: %d", ErrUnknownCart, id)
	}
	f.cycles[id] = 0
	f.replacements[id]++
	return f.Connector.ReplaceCost, f.Connector.ReplaceTime, nil
}

// Cycles returns a cart's mating cycles since last service.
func (f *Fleet) Cycles(id track.CartID) (int, error) {
	c, ok := f.cycles[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownCart, id)
	}
	return c, nil
}

// Replacements returns a cart's lifetime connector replacements.
func (f *Fleet) Replacements(id track.CartID) int { return f.replacements[id] }

// CartIDs returns the fleet members in order.
func (f *Fleet) CartIDs() []track.CartID {
	ids := make([]track.CartID, 0, len(f.cycles))
	for id := range f.cycles {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Projection is the long-run maintenance forecast for a duty cycle.
type Projection struct {
	// DocksPerDay per cart.
	DocksPerDay float64
	// DaysBetweenService per cart.
	DaysBetweenService float64
	// ReplacementsPerCartYear of connectors.
	ReplacementsPerCartYear float64
	// AnnualCost for the whole fleet.
	AnnualCost units.USD
	// Availability is the fraction of time a cart is in service (not being
	// re-connectored).
	Availability float64
}

// Project forecasts maintenance for the fleet at a docking rate. A cart
// doing round trips docks twice per trip (endpoint and library).
func (f *Fleet) Project(docksPerCartPerDay float64) (Projection, error) {
	if docksPerCartPerDay <= 0 {
		return Projection{}, errors.New("fleet: docking rate must be positive")
	}
	days := float64(f.serviceThreshold()) / docksPerCartPerDay
	perYear := 365.0 / days
	downPerYear := perYear * float64(f.Connector.ReplaceTime)
	yearSeconds := 365.0 * 86400
	return Projection{
		DocksPerDay:             docksPerCartPerDay,
		DaysBetweenService:      days,
		ReplacementsPerCartYear: perYear,
		AnnualCost:              units.USD(perYear * float64(f.Connector.ReplaceCost) * float64(len(f.cycles))),
		Availability:            1 - downPerYear/yearSeconds,
	}, nil
}
