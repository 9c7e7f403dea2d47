package netmodel

import (
	"errors"
	"fmt"
)

// The paper's Figure 2 sketches a three-tier fat tree: nodes attach to
// tier-1 (top-of-rack) switches, racks aggregate through tier-2 switches per
// aisle, and a tier-3 core switch joins aisles. This file builds that
// topology explicitly and derives route power decompositions from it, so the
// scenario energies are the output of actual routing rather than hard-coded
// port counts.

// Tier identifies a switch layer.
type Tier int

const (
	TierToR  Tier = 1
	TierAgg  Tier = 2
	TierCore Tier = 3
)

// NodeID addresses a compute/storage node as (aisle, rack, slot).
type NodeID struct {
	Aisle, Rack, Slot int
}

// String implements fmt.Stringer.
func (n NodeID) String() string {
	return fmt.Sprintf("n%d.%d.%d", n.Aisle, n.Rack, n.Slot)
}

// FatTree is the Figure 2 topology.
type FatTree struct {
	Aisles        int // aisles joined by the core switch
	RacksPerAisle int // ToR switches per aisle
	NodesPerRack  int
	Switch        SwitchSpec
}

// DefaultFatTree matches Figure 2: 2 aisles × 4 racks × a handful of nodes.
func DefaultFatTree() FatTree {
	return FatTree{Aisles: 2, RacksPerAisle: 4, NodesPerRack: 8, Switch: QM9700}
}

// Validate checks the topology is well formed and the racks fit the switch
// radix (each ToR needs NodesPerRack downlinks + 1 uplink).
func (f FatTree) Validate() error {
	if f.Aisles < 1 || f.RacksPerAisle < 1 || f.NodesPerRack < 1 {
		return errors.New("netmodel: fat tree dimensions must be positive")
	}
	if f.NodesPerRack+1 > f.Switch.Ports {
		return fmt.Errorf("netmodel: %d nodes/rack exceeds %s radix %d",
			f.NodesPerRack, f.Switch.Name, f.Switch.Ports)
	}
	if f.RacksPerAisle+1 > f.Switch.Ports {
		return fmt.Errorf("netmodel: %d racks/aisle exceeds %s radix %d",
			f.RacksPerAisle, f.Switch.Name, f.Switch.Ports)
	}
	return nil
}

// Contains reports whether the node address exists in the topology.
func (f FatTree) Contains(n NodeID) bool {
	return n.Aisle >= 0 && n.Aisle < f.Aisles &&
		n.Rack >= 0 && n.Rack < f.RacksPerAisle &&
		n.Slot >= 0 && n.Slot < f.NodesPerRack
}

// Hop is one switch traversal on a route.
type Hop struct {
	Tier    Tier
	Aisle   int // -1 for the core switch
	Index   int // switch index within its tier
	In, Out PortKind
}

// Route is a path between two nodes through the tree.
type Route struct {
	Src, Dst NodeID
	Hops     []Hop
	Direct   bool // node-to-node cable, no switches
}

// ErrUnknownNode is returned for addresses outside the topology.
var ErrUnknownNode = errors.New("netmodel: node not in topology")

// RouteBetween computes the minimal route between two distinct nodes:
// same rack → via the shared ToR; same aisle → ToR/agg/ToR; different
// aisles → ToR/agg/core/agg/ToR. Node↔ToR links are passive, everything
// above is active.
func (f FatTree) RouteBetween(src, dst NodeID) (Route, error) {
	if err := f.Validate(); err != nil {
		return Route{}, err
	}
	if !f.Contains(src) {
		return Route{}, fmt.Errorf("%w: %v", ErrUnknownNode, src)
	}
	if !f.Contains(dst) {
		return Route{}, fmt.Errorf("%w: %v", ErrUnknownNode, dst)
	}
	if src == dst {
		return Route{}, errors.New("netmodel: src and dst are the same node")
	}
	r := Route{Src: src, Dst: dst}
	switch {
	case src.Aisle == dst.Aisle && src.Rack == dst.Rack:
		// One ToR, both links passive.
		r.Hops = []Hop{{Tier: TierToR, Aisle: src.Aisle, Index: src.Rack,
			In: PortPassive, Out: PortPassive}}
	case src.Aisle == dst.Aisle:
		// ToR up (passive in, active out), aisle aggregation (active), ToR
		// down (active in, passive out).
		r.Hops = []Hop{
			{Tier: TierToR, Aisle: src.Aisle, Index: src.Rack, In: PortPassive, Out: PortActive},
			{Tier: TierAgg, Aisle: src.Aisle, Index: 0, In: PortActive, Out: PortActive},
			{Tier: TierToR, Aisle: dst.Aisle, Index: dst.Rack, In: PortActive, Out: PortPassive},
		}
	default:
		r.Hops = []Hop{
			{Tier: TierToR, Aisle: src.Aisle, Index: src.Rack, In: PortPassive, Out: PortActive},
			{Tier: TierAgg, Aisle: src.Aisle, Index: 0, In: PortActive, Out: PortActive},
			{Tier: TierCore, Aisle: -1, Index: 0, In: PortActive, Out: PortActive},
			{Tier: TierAgg, Aisle: dst.Aisle, Index: 0, In: PortActive, Out: PortActive},
			{Tier: TierToR, Aisle: dst.Aisle, Index: dst.Rack, In: PortActive, Out: PortPassive},
		}
	}
	return r, nil
}

// DirectRoute returns a switchless point-to-point route (scenarios A0/A1).
func (f FatTree) DirectRoute(src, dst NodeID) Route {
	return Route{Src: src, Dst: dst, Direct: true}
}

// Power derives the route's power decomposition. Direct routes are charged
// either bare transceivers (minimal=true, scenario A0) or NIC pairs
// (scenario A1); switched routes are charged NIC pairs plus each traversed
// port at its cabling class.
func (r Route) Power(minimal bool) RoutePower {
	if r.Direct {
		if minimal {
			return RoutePower{Transceivers: 2}
		}
		return RoutePower{NICs: 2}
	}
	p := RoutePower{NICs: 2}
	for _, h := range r.Hops {
		for _, k := range [2]PortKind{h.In, h.Out} {
			if k == PortPassive {
				p.PassivePorts++
			} else {
				p.ActivePorts++
			}
		}
	}
	return p
}

// ScenarioRoutes derives the paper's five scenarios from the default
// topology: A0/A1 direct, A2 same-rack, B same-aisle different-rack,
// C different-aisle. It panics only on programming error (the default
// topology is valid by construction).
func ScenarioRoutes() map[Scenario]RoutePower {
	f := DefaultFatTree()
	storageNode := NodeID{Aisle: 0, Rack: 0, Slot: 0}
	sameRack := NodeID{Aisle: 0, Rack: 0, Slot: 1}
	otherRack := NodeID{Aisle: 0, Rack: 2, Slot: 0}
	otherAisle := NodeID{Aisle: 1, Rack: 1, Slot: 0}

	mustRoute := func(dst NodeID) Route {
		r, err := f.RouteBetween(storageNode, dst)
		if err != nil {
			panic(err)
		}
		return r
	}
	return map[Scenario]RoutePower{
		ScenarioA0: f.DirectRoute(storageNode, sameRack).Power(true),
		ScenarioA1: f.DirectRoute(storageNode, sameRack).Power(false),
		ScenarioA2: mustRoute(sameRack).Power(false),
		ScenarioB:  mustRoute(otherRack).Power(false),
		ScenarioC:  mustRoute(otherAisle).Power(false),
	}
}
