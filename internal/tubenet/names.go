package tubenet

// The campus simulation's event and span names form a small fixed
// vocabulary, interned here as constants. The dispatch hot loop never
// builds a name at run time (per-cart track names are precomputed at
// construction), so scheduling and recording stay free of string garbage
// and trace consumers can rely on the exact byte strings below.
const (
	// Event-kernel event names (sim.Engine schedule sites).
	evDepart = "campus-depart"
	evArrive = "campus-arrive"
	evDwell  = "campus-dwell"
	evEpoch  = "route-epoch"

	// Span and instant names on cart telemetry tracks.
	spanTransit = "transit"
	spanDock    = "dock"
	spanDwell   = "dwell"
	markReroute = "reroute"
	markLoiter  = "loiter"
	markStall   = "stall"
	markResume  = "resume"
)
