package dhlsys

import (
	"repro/internal/telemetry"
	"repro/internal/track"
)

// plant is the shared state of the physical DHL of §III-B: the rail(s)
// between the library and the endpoint, the endpoint's bank of
// vertically-stacked docking stations, and the cart mid-dock. Where each
// cart is lives on the cart itself (Cart.Loc, Cart.Busy); plant holds only
// what carts contend for. The paper's rules — one cart in transit per rail
// direction, one cart per station, and no shuttling past a station while a
// cart is mid-dock — are checked by the launch steps (scratch.go) before
// they mutate these fields, so the mutators below do no checking of their
// own.
type plant struct {
	// single is true on a single rail, where both directions share slot 0:
	// one holder, and a blockage either way closes the whole track.
	single bool
	// holder is the cart holding each rail direction slot, NoCart when
	// free; blocked counts active fault blockages per slot (they nest).
	holder  [2]track.CartID
	blocked [2]int

	// stations holds each docking station's occupant (NoCart when empty);
	// failed marks stations out of service. A failed station keeps its
	// occupant, which can still undock, but accepts no new dock until
	// repaired. Failures do not nest: one repair restores the station.
	stations []track.CartID
	failed   []bool
	// midDock is the cart docking or undocking at the endpoint, NoCart
	// when clear; while set, no other cart may pass the bank.
	midDock track.CartID

	// Plant-level counters (nil, and so no-ops, without telemetry).
	telReservations *telemetry.Counter
	telBlocks       *telemetry.Counter
	telDocks        *telemetry.Counter
	telUndocks      *telemetry.Counter
	telFailures     *telemetry.Counter
	telRepairs      *telemetry.Counter
}

// newPlant builds an empty plant with the given rail mode and station
// count (≥ 1, checked by New).
func newPlant(mode track.RailMode, stations int) plant {
	p := plant{
		single:   mode == track.SingleRail,
		holder:   [2]track.CartID{track.NoCart, track.NoCart},
		stations: make([]track.CartID, stations),
		failed:   make([]bool, stations),
		midDock:  track.NoCart,
	}
	for i := range p.stations {
		p.stations[i] = track.NoCart
	}
	return p
}

// instrument binds the plant counters to reg; a nil registry is a no-op.
func (p *plant) instrument(reg *telemetry.Registry) {
	p.telReservations = reg.Counter("dhl_rail_reservations_total")
	p.telBlocks = reg.Counter("dhl_rail_blocks_total")
	p.telDocks = reg.Counter("dhl_dock_docks_total")
	p.telUndocks = reg.Counter("dhl_dock_undocks_total")
	p.telFailures = reg.Counter("dhl_dock_station_failures_total")
	p.telRepairs = reg.Counter("dhl_dock_station_repairs_total")
}

// slot maps a direction to its rail slot.
func (p *plant) slot(d track.Direction) int {
	if p.single {
		return 0
	}
	return int(d)
}

// railFree reports whether direction d is neither held nor blocked.
func (p *plant) railFree(d track.Direction) bool {
	i := p.slot(d)
	return p.holder[i] == track.NoCart && p.blocked[i] == 0
}

// railBlocked reports whether a fault has direction d out of service.
func (p *plant) railBlocked(d track.Direction) bool { return p.blocked[p.slot(d)] > 0 }

// reserve gives direction d to cart id; the caller has seen railFree(d).
func (p *plant) reserve(id track.CartID, d track.Direction) {
	p.holder[p.slot(d)] = id
	p.telReservations.Inc()
}

// release frees direction d after its holder's transit.
func (p *plant) release(d track.Direction) { p.holder[p.slot(d)] = track.NoCart }

// block adds one fault blockage to direction d.
func (p *plant) block(d track.Direction) {
	p.blocked[p.slot(d)]++
	p.telBlocks.Inc()
}

// unblock clears one blockage on direction d.
func (p *plant) unblock(d track.Direction) {
	if i := p.slot(d); p.blocked[i] > 0 {
		p.blocked[i]--
	}
}

// dockable returns the lowest-numbered free in-service station, or −1
// when none is free or a cart is mid-dock.
func (p *plant) dockable() int {
	if p.midDock != track.NoCart {
		return -1
	}
	for i, occ := range p.stations {
		if occ == track.NoCart && !p.failed[i] {
			return i
		}
	}
	return -1
}

// beginDock starts docking cart id into station i (from dockable).
func (p *plant) beginDock(id track.CartID, i int) {
	p.stations[i] = id
	p.midDock = id
}

// endDock completes the dock in progress.
func (p *plant) endDock() {
	p.midDock = track.NoCart
	p.telDocks.Inc()
}

// endUndock completes cart id's undock, freeing its station. The undock
// began when the caller set midDock to id.
func (p *plant) endUndock(id track.CartID) {
	for i, occ := range p.stations {
		if occ == id {
			p.stations[i] = track.NoCart
			break
		}
	}
	p.midDock = track.NoCart
	p.telUndocks.Inc()
}
