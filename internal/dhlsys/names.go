package dhlsys

// The simulation's event and span names form a small fixed vocabulary,
// interned here as constants: the hot path never builds a name at run
// time (the lone per-cart name, the cart's track, is built and interned
// once when telemetry is attached), so scheduling and recording are free
// of string garbage, and trace consumers (cmd/dhltracecheck, the chaos
// scenarios' golden logs) can rely on the exact byte strings below.
const (
	// Event-kernel event names (sim.Engine schedule sites).
	evUndockLibrary  = "undock@library"
	evUndockEndpoint = "undock@endpoint"
	evDockLibrary    = "dock@library"
	evDockEndpoint   = "dock@endpoint"
	evTransitOut     = "transit-out"
	evTransitIn      = "transit-in"
	evIO             = "io"
	evIODegraded     = "io-degraded"
	evService        = "connector-service"
	evRetryBackoff   = "retry-backoff"

	// Span and instant names on cart telemetry tracks.
	spanUndock  = "undock"
	spanDock    = "dock"
	spanTransit = "transit"
	spanAccel   = "accel"
	spanCruise  = "cruise"
	spanBrake   = "brake"
	spanLoiter  = "loiter"
	spanEnqueue = "enqueue"
	spanIORead  = "io-read"
	spanIOWrite = "io-write"
	spanIODegr  = "io-degraded"
	markStall   = "stall"
	markReroute = "reroute"
	markTimeout = "timeout"
)
