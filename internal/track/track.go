// Package track holds the vocabulary shared by the DHL simulators: cart
// identity, direction of travel, and the §VI rail designs. The shuttle
// plant itself — rail holders, docking stations, the mid-dock rule — is
// simulated by internal/dhlsys.
package track

// CartID identifies a cart within a DHL deployment. IDs are dense fleet
// indexes: a fleet of N carts uses 0..N−1, and state keyed by cart (the
// simulator's cart table) is a slice indexed by ID.
type CartID int

// NoCart is the absent-cart sentinel.
const NoCart CartID = -1

// Direction of travel on the DHL.
type Direction int

const (
	// Outbound: library → endpoint.
	Outbound Direction = iota
	// Inbound: endpoint → library.
	Inbound
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Outbound {
		return "outbound"
	}
	return "inbound"
}

// Opposite returns the reverse direction.
func (d Direction) Opposite() Direction {
	if d == Outbound {
		return Inbound
	}
	return Outbound
}

// RailMode selects the §VI track design alternatives.
type RailMode int

const (
	// SingleRail is the paper's primary design: one bidirectional rail with
	// LIMs at each end.
	SingleRail RailMode = iota
	// DualRail is the §VI alternative: one outbound and one inbound rail,
	// enabling simultaneous shuttling in both directions.
	DualRail
)

// String implements fmt.Stringer.
func (m RailMode) String() string {
	if m == SingleRail {
		return "single-rail"
	}
	return "dual-rail"
}
