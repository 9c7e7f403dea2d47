// Package multistop implements the §VI "Multi-stops" track design: a DHL
// with more than two endpoints, carts stopping at any station, and
// management of concurrent movements on the shared rail. The paper notes
// the primary design "is designed to extend to this use case without
// significant modifications" and that multi-stop operation "would motivate
// higher speeds to ameliorate potential contention from different users" —
// a claim the simulation here makes measurable.
//
// Movement rules:
//
//   - A move from stop A to stop B reserves the rail span [A, B] (stops
//     inclusive — a cart mid-dock blocks through traffic at its stop).
//   - Moves whose spans do not overlap proceed concurrently on the single
//     rail; conflicting moves queue FIFO.
//   - Short hops that cannot reach full speed follow a triangular velocity
//     profile; long hops follow the usual trapezoid.
package multistop

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/track"
	"repro/internal/units"
)

// Stop is one station on the line.
type Stop struct {
	Name     string
	Position units.Metres
}

// Line is a multi-stop DHL.
type Line struct {
	Engine *sim.Engine

	cfg   core.Config
	stops []Stop
	// cartAt maps cart → stop index; carts in transit are absent.
	cartAt map[track.CartID]int
	busy   map[track.CartID]bool
	// trackName builds each cart's telemetry track ("cart-N") at Place
	// time, keeping the per-move completion path free of string building;
	// trackID holds the corresponding span-log intern IDs once telemetry
	// is wired (SetTelemetry backfills carts placed before it ran).
	trackName map[track.CartID]string
	trackID   map[track.CartID]telemetry.StrID
	// active spans: [lo, hi] stop-index ranges currently reserved.
	active []Span
	// blocked spans: segments out of service (derailment, maintenance);
	// moves overlapping a blocked span queue until it clears.
	blocked []Span
	waiting []func() bool
	stats   Stats

	// Telemetry (optional, nil-safe): move accounting and per-move spans on
	// "cart-N" tracks.
	telMoves   *telemetry.Counter
	telQueued  *telemetry.Counter
	telBlocked *telemetry.Counter
	telWait    *telemetry.Histogram
	telSpans   *telemetry.SpanLog
	moveID     telemetry.StrID // interned "move" span name
}

// moveWaitBuckets is the queue-wait histogram layout, in seconds.
var moveWaitBuckets = []float64{0.1, 1, 5, 10, 50, 100, 500, 1000}

// SetTelemetry instruments the line: dhl_line_moves_total,
// dhl_line_queued_moves_total, dhl_line_blocked_moves_total, the
// dhl_line_move_wait_seconds histogram, and one span per completed move on
// the cart's track. A nil set disables instrumentation.
func (l *Line) SetTelemetry(set *telemetry.Set) {
	reg := set.MetricsOf()
	l.telMoves = reg.Counter("dhl_line_moves_total")
	l.telQueued = reg.Counter("dhl_line_queued_moves_total")
	l.telBlocked = reg.Counter("dhl_line_blocked_moves_total")
	l.telWait = reg.Histogram("dhl_line_move_wait_seconds", moveWaitBuckets)
	l.telSpans = set.SpansOf()
	if l.telSpans != nil {
		l.moveID = l.telSpans.Intern("move")
		for id, name := range l.trackName {
			l.trackID[id] = l.telSpans.Intern(name)
		}
	}
}

// Span is an inclusive [Lo, Hi] stop-index range on a shared rail. It is
// the unit of rail reservation: a move from stop A to stop B holds the span
// [min(A,B), max(A,B)], endpoints included — a cart mid-dock blocks through
// traffic at its stop. The type is exported because the semantics outlive
// this package: internal/tubenet reuses Span as the conflict domain for
// spur lines in a campus tube network, so "two moves conflict iff their
// spans overlap" means the same thing on a two-stop line and a 20-station
// campus.
type Span struct{ Lo, Hi int }

// NewSpan returns the span covering both stop indices, in either order.
func NewSpan(a, b int) Span {
	if a > b {
		a, b = b, a
	}
	return Span{Lo: a, Hi: b}
}

// Overlaps reports whether the two inclusive ranges share any stop.
func (s Span) Overlaps(o Span) bool { return s.Lo <= o.Hi && o.Lo <= s.Hi }

// Stats accumulates line-wide accounting.
type Stats struct {
	Moves  int
	Energy units.Joules
	// QueuedMoves had to wait for a conflicting span to clear.
	QueuedMoves int
	// BlockedMoves had to wait specifically for an out-of-service segment.
	BlockedMoves int
	// TotalWait is the cumulative time moves spent queued.
	TotalWait units.Seconds
}

// Errors returned by the line.
var (
	ErrUnknownStop = errors.New("multistop: unknown stop")
	ErrUnknownCart = errors.New("multistop: unknown cart")
	ErrCartBusy    = errors.New("multistop: cart is moving")
	ErrSameStop    = errors.New("multistop: origin equals destination")
)

// New builds a line from a DHL configuration and a set of stops. Stops are
// sorted by position; at least two are required and positions must be
// distinct. Carts are placed via Place before moves are issued.
func New(cfg core.Config, stops []Stop) (*Line, error) {
	// Validate everything except track length (the core config's Length is
	// irrelevant here — hops define their own distances).
	if cfg.Cart == nil {
		return nil, core.ErrNoCart
	}
	if cfg.MaxSpeed <= 0 || cfg.Acceleration <= 0 {
		return nil, errors.New("multistop: speed and acceleration must be positive")
	}
	if cfg.DockTime < 0 || cfg.UndockTime < 0 {
		return nil, errors.New("multistop: docking times must be non-negative")
	}
	if cfg.LIM.Efficiency <= 0 || cfg.LIM.Efficiency > 1 {
		return nil, errors.New("multistop: LIM efficiency must be in (0,1]")
	}
	if len(stops) < 2 {
		return nil, errors.New("multistop: need at least two stops")
	}
	ss := make([]Stop, len(stops))
	copy(ss, stops)
	sort.Slice(ss, func(i, j int) bool { return ss[i].Position < ss[j].Position })
	for i := 1; i < len(ss); i++ {
		//dhllint:allow floateq -- positions are exact user-specified config values; duplicates mean the same physical stop
		if ss[i].Position == ss[i-1].Position {
			return nil, fmt.Errorf("multistop: stops %q and %q share position %v",
				ss[i-1].Name, ss[i].Name, ss[i].Position)
		}
	}
	return &Line{
		Engine:    sim.New(),
		cfg:       cfg,
		stops:     ss,
		cartAt:    make(map[track.CartID]int),
		busy:      make(map[track.CartID]bool),
		trackName: make(map[track.CartID]string),
		trackID:   make(map[track.CartID]telemetry.StrID),
	}, nil
}

// Stops returns the line's stops in position order.
func (l *Line) Stops() []Stop { return append([]Stop(nil), l.stops...) }

// StopIndex resolves a stop name.
func (l *Line) StopIndex(name string) (int, error) {
	for i, s := range l.stops {
		if s.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownStop, name)
}

// Place puts a cart at a stop (initial fleet placement).
func (l *Line) Place(id track.CartID, stop int) error {
	if stop < 0 || stop >= len(l.stops) {
		return fmt.Errorf("%w: index %d", ErrUnknownStop, stop)
	}
	if _, ok := l.cartAt[id]; ok {
		return fmt.Errorf("multistop: cart %d already placed", id)
	}
	l.cartAt[id] = stop
	l.trackName[id] = "cart-" + strconv.Itoa(int(id))
	if l.telSpans != nil {
		l.trackID[id] = l.telSpans.Intern(l.trackName[id])
	}
	return nil
}

// CartAt returns the stop a cart is docked at, or false if in transit or
// unknown.
func (l *Line) CartAt(id track.CartID) (int, bool) {
	s, ok := l.cartAt[id]
	return s, ok
}

// Stats returns a snapshot.
func (l *Line) Stats() Stats { return l.stats }

// Hop describes one inter-stop movement's physics.
type Hop struct {
	Distance units.Metres
	// PeakSpeed reached (maxSpeed, or lower on a triangular short hop).
	PeakSpeed units.MetresPerSecond
	// TransitTime on the rail (no docking).
	TransitTime units.Seconds
	// MoveTime including undock and dock.
	MoveTime units.Seconds
	// Energy of the accelerate/brake pair.
	Energy units.Joules
	// Triangular marks a hop too short to reach full speed.
	Triangular bool
}

// HopBetween computes the movement physics between two stop indices.
func (l *Line) HopBetween(from, to int) (Hop, error) {
	if from < 0 || from >= len(l.stops) || to < 0 || to >= len(l.stops) {
		return Hop{}, fmt.Errorf("%w: %d→%d", ErrUnknownStop, from, to)
	}
	if from == to {
		return Hop{}, ErrSameStop
	}
	d := math.Abs(float64(l.stops[to].Position - l.stops[from].Position))
	a := float64(l.cfg.Acceleration)
	vmax := float64(l.cfg.MaxSpeed)
	ramps := vmax * vmax / a // 2 × v²/2a
	h := Hop{Distance: units.Metres(d)}
	if d < ramps {
		// Triangular: accelerate over d/2, brake over d/2.
		peak := math.Sqrt(a * d)
		h.PeakSpeed = units.MetresPerSecond(peak)
		h.TransitTime = units.Seconds(2 * math.Sqrt(d/a))
		h.Triangular = true
	} else {
		h.PeakSpeed = l.cfg.MaxSpeed
		// Paper ramp accounting, consistent with internal/core.
		h.TransitTime = units.Seconds(d/vmax + vmax/(2*a))
	}
	h.MoveTime = l.cfg.UndockTime + h.TransitTime + l.cfg.DockTime
	h.Energy = l.cfg.LIM.LaunchEnergy(l.cfg.Cart.TotalMass, h.PeakSpeed)
	return h, nil
}

// Move schedules cart id from its current stop to stop index `to`. done is
// called on completion (or immediately with a validation error). Moves with
// conflicting rail spans queue FIFO. A cart is busy from the moment its move
// is accepted, queued or not, so a second Move fails with ErrCartBusy until
// the first completes.
func (l *Line) Move(id track.CartID, to int, done func(error)) {
	if l.busy[id] {
		done(fmt.Errorf("%w: %d", ErrCartBusy, id))
		return
	}
	from, ok := l.cartAt[id]
	if !ok {
		done(fmt.Errorf("%w: %d", ErrUnknownCart, id))
		return
	}
	hop, err := l.HopBetween(from, to)
	if err != nil {
		done(err)
		return
	}
	l.busy[id] = true
	sp := NewSpan(from, to)
	requested := l.Engine.Now()
	blockedOnce := false
	tryStart := func() bool {
		for _, b := range l.blocked {
			if sp.Overlaps(b) {
				if !blockedOnce {
					blockedOnce = true
					l.stats.BlockedMoves++
					l.telBlocked.Inc()
				}
				return false
			}
		}
		for _, a := range l.active {
			if sp.Overlaps(a) {
				return false
			}
		}
		l.active = append(l.active, sp)
		delete(l.cartAt, id)
		wait := l.Engine.Now() - requested
		l.stats.TotalWait += wait
		l.telWait.Observe(float64(wait))
		start := l.Engine.Now()
		l.Engine.MustAfter(hop.MoveTime, "move", func() {
			l.release(sp)
			l.cartAt[id] = to
			l.busy[id] = false
			l.stats.Moves++
			l.stats.Energy += hop.Energy
			l.telMoves.Inc()
			if l.telSpans != nil {
				l.telSpans.RecordSpan(l.trackID[id], l.moveID, start, l.Engine.Now(), l.telSpans.ArgsOf(
					telemetry.KV{Key: "from", Value: l.stops[from].Name},
					telemetry.KV{Key: "to", Value: l.stops[to].Name}))
			}
			l.retryWaiting()
			done(nil)
		})
		return true
	}
	if tryStart() {
		return
	}
	l.stats.QueuedMoves++
	l.telQueued.Inc()
	l.waiting = append(l.waiting, tryStart)
}

// Block takes the rail segment spanning stop indices [lo, hi] out of
// service (fault injection: derailed cart, tube maintenance). Moves whose
// spans overlap it queue FIFO until Unblock. Blockades nest; each Block
// needs a matching Unblock.
func (l *Line) Block(lo, hi int) error {
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo < 0 || hi >= len(l.stops) {
		return fmt.Errorf("%w: segment [%d,%d]", ErrUnknownStop, lo, hi)
	}
	l.blocked = append(l.blocked, Span{Lo: lo, Hi: hi})
	return nil
}

// Unblock returns the segment [lo, hi] to service and retries queued
// moves. It removes one matching blockade; unknown segments error.
func (l *Line) Unblock(lo, hi int) error {
	if lo > hi {
		lo, hi = hi, lo
	}
	want := Span{Lo: lo, Hi: hi}
	for i, b := range l.blocked {
		if b == want {
			l.blocked = append(l.blocked[:i], l.blocked[i+1:]...)
			l.retryWaiting()
			return nil
		}
	}
	return fmt.Errorf("%w: segment [%d,%d] not blocked", ErrUnknownStop, lo, hi)
}

// BlockedSegments returns the number of active blockades.
func (l *Line) BlockedSegments() int { return len(l.blocked) }

func (l *Line) release(sp Span) {
	for i, a := range l.active {
		if a == sp {
			l.active = append(l.active[:i], l.active[i+1:]...)
			return
		}
	}
}

func (l *Line) retryWaiting() {
	remaining := l.waiting[:0]
	for _, try := range l.waiting {
		if !try() {
			remaining = append(remaining, try)
		}
	}
	l.waiting = remaining
}

// Run drains the event queue and returns the end time.
func (l *Line) Run() (units.Seconds, error) {
	if _, err := l.Engine.Run(10_000_000); err != nil {
		return l.Engine.Now(), err
	}
	return l.Engine.Now(), nil
}
