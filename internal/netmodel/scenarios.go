package netmodel

import "fmt"

// Scenario identifies one of the paper's five evaluated network routes
// (Figure 2 right-hand table).
type Scenario int

const (
	// ScenarioA0: direct minimal connection — two transceivers only.
	ScenarioA0 Scenario = iota
	// ScenarioA1: direct passive connection with regular NICs.
	ScenarioA1
	// ScenarioA2: passive connection through one ToR switch.
	ScenarioA2
	// ScenarioB: different racks, storage → NIC → 3 switches → NIC.
	ScenarioB
	// ScenarioC: different aisles, storage → NIC → 1A-2A-3-2C-1C → NIC.
	ScenarioC
)

// Scenarios lists all five in paper order.
func Scenarios() []Scenario {
	return []Scenario{ScenarioA0, ScenarioA1, ScenarioA2, ScenarioB, ScenarioC}
}

// String implements fmt.Stringer.
func (s Scenario) String() string {
	switch s {
	case ScenarioA0:
		return "A0"
	case ScenarioA1:
		return "A1"
	case ScenarioA2:
		return "A2"
	case ScenarioB:
		return "B"
	case ScenarioC:
		return "C"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// Describe returns the paper's route description.
func (s Scenario) Describe() string {
	switch s {
	case ScenarioA0:
		return "storage → transceiver → transceiver → A (direct minimal)"
	case ScenarioA1:
		return "storage → NIC → NIC → A (direct, passive)"
	case ScenarioA2:
		return "storage → NIC → switch → NIC → A (same rack, passive)"
	case ScenarioB:
		return "storage → NIC → 1A → 2A → 1B → NIC → B (different rack)"
	case ScenarioC:
		return "storage → NIC → 1A → 2A → 3 → 2C → 1C → NIC → C (different aisle)"
	default:
		return "unknown"
	}
}

// Power returns the route's power decomposition. Node↔ToR links are passive;
// switch↔switch links are active with the transceiver cost folded into the
// active port rating (see DESIGN.md §2).
func (s Scenario) Power() RoutePower {
	switch s {
	case ScenarioA0:
		return RoutePower{Transceivers: 2}
	case ScenarioA1:
		return RoutePower{NICs: 2}
	case ScenarioA2:
		return RoutePower{NICs: 2, PassivePorts: 2}
	case ScenarioB:
		// 3 switches: ToR(passive in, active out), aggregation (2 active),
		// ToR (active in, passive out).
		return RoutePower{NICs: 2, PassivePorts: 2, ActivePorts: 4}
	case ScenarioC:
		// 5 switches: 1A-2A-3-2C-1C.
		return RoutePower{NICs: 2, PassivePorts: 2, ActivePorts: 8}
	default:
		return RoutePower{}
	}
}
