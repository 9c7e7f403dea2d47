package dhlsys

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/track"
	"repro/internal/units"
)

// This file implements the bulk-transfer orchestrator used by the paper's
// target workloads (§II-D): move a dataset resident in the library to the
// endpoint with repeated, optionally pipelined, cart deliveries.
//
// Per the paper's methodology, data load/unload time at the library is not
// charged ("we assume the whole dataset resides in the library"; "we do not
// account for the time or energy of reading the data, which must be done in
// both the traditional and DHL settings"). The endpoint-side SSD read *can*
// be enabled to study pipelining, which is exactly the case where multiple
// docking stations pay off.

// ShuttleOptions configures a bulk transfer.
type ShuttleOptions struct {
	// Dataset to deliver to the endpoint.
	Dataset units.Bytes
	// ReadAtEndpoint makes each delivery read the full cart contents through
	// the docking PCIe interface before releasing the cart. While one cart
	// is being read, others can be in flight (§V-B pipelining).
	ReadAtEndpoint bool
}

// ShuttleResult summarises a completed bulk transfer.
type ShuttleResult struct {
	// Deliveries completed (each one cart-capacity of data).
	Deliveries int
	// Retries due to in-flight storage failures.
	Retries int
	// DegradedDeliveries completed with only the surviving stripes of a
	// degraded array (counted inside Deliveries).
	DegradedDeliveries int
	// Timeouts is the number of launches that exceeded the recovery
	// policy's launch timeout.
	Timeouts int
	// Duration of the whole transfer, including final cart returns.
	Duration units.Seconds
	// Energy charged for all launches.
	Energy units.Joules
	// BytesDelivered to the endpoint (deliveries × cart capacity, the last
	// delivery counted in full as in the analytical model).
	BytesDelivered units.Bytes
	// FailureErrors reported by the API during the run (§III-D).
	FailureErrors []error
}

// EffectiveBandwidth is delivered data over duration.
func (r ShuttleResult) EffectiveBandwidth() units.BytesPerSecond {
	if r.Duration <= 0 {
		return 0
	}
	return units.BytesPerSecond(float64(r.BytesDelivered) / float64(r.Duration))
}

// ErrRetriesExhausted is returned when failures prevent completing delivery.
var ErrRetriesExhausted = errors.New("dhlsys: delivery retries exhausted")

// backoffDelay returns the delay before a retry after consecFails
// consecutive failures: RetryBackoff doubling per failure, capped at
// 16 × RetryBackoff. A zero RetryBackoff retries immediately, the
// pre-policy behaviour.
func (s *System) backoffDelay(consecFails int) units.Seconds {
	b := s.opt.Recovery.RetryBackoff
	if b <= 0 {
		return 0
	}
	maxB := 16 * b
	for i := 0; i < consecFails && b < maxB; i++ {
		b *= 2
	}
	if b > maxB {
		b = maxB
	}
	return b
}

// PreloadFleet fills every cart's array to capacity instantly, modelling the
// dataset already residing on library carts.
func (s *System) PreloadFleet() error {
	for _, c := range s.carts {
		if free := c.Array.Capacity() - c.Array.Used(); free > 0 {
			if _, err := c.Array.Write(free); err != nil {
				return fmt.Errorf("dhlsys: preload cart %d: %w", c.ID, err)
			}
		}
	}
	return nil
}

// Shuttle runs a bulk transfer to completion and returns its result. It
// drives the simulation engine itself; the system must be otherwise idle.
func (s *System) Shuttle(opt ShuttleOptions) (ShuttleResult, error) {
	if opt.Dataset <= 0 {
		return ShuttleResult{}, fmt.Errorf("dhlsys: dataset must be positive, got %v", opt.Dataset)
	}
	capB := s.opt.Core.Cart.Capacity()
	deliveries := int(math.Ceil(float64(opt.Dataset) / float64(capB)))
	// Endpoint reads move the array's usable payload, which is slightly
	// below the nominal cart capacity for parity RAID levels.
	readB := capB
	if opt.ReadAtEndpoint {
		if err := s.PreloadFleet(); err != nil {
			return ShuttleResult{}, err
		}
		s.autoReload = true
		defer func() { s.autoReload = false }()
		for _, c := range s.carts {
			if ac := c.Array.Capacity(); ac < readB {
				readB = ac
			}
		}
	}

	startEnergy := s.stats.Energy
	start := s.Engine.Now()
	run := &shuttleRun{
		s:          s,
		deliveries: deliveries,
		maxRetries: deliveries * 10,
		readAtEnd:  opt.ReadAtEndpoint,
		readB:      readB,
	}

	// Each cart runs an independent worker loop: claim a slot, Open,
	// optionally Read, Close, repeat. The System's internal FIFO queue
	// serialises resource contention. Failed deliveries retry with the
	// recovery policy's exponential backoff (deterministic: delays are
	// simulated time, scheduled on the event kernel). Workers pre-bind
	// their callbacks once, so steady-state deliveries allocate nothing
	// in this driver.
	workers := make([]*shuttleWorker, s.opt.NumCarts)
	for i := range workers {
		workers[i] = newShuttleWorker(run, track.CartID(i))
	}
	for _, w := range workers {
		w.loop()
	}
	if _, err := s.Run(); err != nil {
		return run.res, err
	}
	if run.fatal != nil {
		return run.res, run.fatal
	}
	res := run.res
	if res.Deliveries != deliveries {
		return res, fmt.Errorf("dhlsys: delivered %d of %d", res.Deliveries, deliveries)
	}
	res.Duration = s.Engine.Now() - start
	res.Energy = s.stats.Energy - startEnergy
	res.BytesDelivered = units.Bytes(float64(deliveries) * float64(capB))
	return res, nil
}

// shuttleRun is one bulk transfer's shared state across its per-cart
// workers.
type shuttleRun struct {
	s          *System
	res        ShuttleResult
	deliveries int
	maxRetries int
	claimed    int // delivery slots handed to workers
	readAtEnd  bool
	readB      units.Bytes
	fatal      error
}

// shuttleWorker drives one cart through claim → Open → (Read) → Close
// cycles. Its callbacks are bound once at construction; per-delivery
// state lives in the fields below, so the steady-state loop is free of
// closure allocations.
type shuttleWorker struct {
	run         *shuttleRun
	id          track.CartID
	consecFails int
	// backoff, when positive, delays the next loop entry after Close —
	// set by finish for failed deliveries under the recovery policy.
	backoff units.Seconds

	loopFn      func()
	openDoneFn  func(error)
	readDoneFn  func(units.Seconds, error)
	closeDoneFn func(error)
}

func newShuttleWorker(run *shuttleRun, id track.CartID) *shuttleWorker {
	w := &shuttleWorker{run: run, id: id}
	w.loopFn = w.loop
	w.openDoneFn = w.openDone
	w.readDoneFn = w.readDone
	w.closeDoneFn = w.closeDone
	return w
}

// loop claims the next delivery slot and launches the cart.
func (w *shuttleWorker) loop() {
	r := w.run
	if r.fatal != nil || r.claimed >= r.deliveries {
		return
	}
	r.claimed++
	r.s.Open(w.id, w.openDoneFn)
}

// openDone handles launch completion at the endpoint.
func (w *shuttleWorker) openDone(err error) {
	r := w.run
	timedOut := errors.Is(err, ErrLaunchTimeout)
	if err != nil && !timedOut {
		r.fatal = fmt.Errorf("dhlsys: open cart %d: %w", w.id, err)
		return
	}
	if timedOut {
		// The cart is docked but the delivery blew its budget: the
		// management layer redelivers (§III-D).
		r.res.Timeouts++
		r.res.FailureErrors = append(r.res.FailureErrors, err)
		w.finish(false)
		return
	}
	if !r.readAtEnd {
		// Delivery = cart physically present; §V-B accounting.
		w.finish(true)
		return
	}
	r.s.Read(w.id, r.readB, w.readDoneFn)
}

// readDone handles the endpoint-side cart read.
func (w *shuttleWorker) readDone(_ units.Seconds, err error) {
	r := w.run
	if err != nil {
		r.res.FailureErrors = append(r.res.FailureErrors, err)
		if errors.Is(err, ErrDegradedRead) {
			// Amelioration: the surviving stripes were served; the
			// delivery stands, degraded.
			r.res.DegradedDeliveries++
			w.finish(true)
			return
		}
		// Hard in-flight failure surfaced by the API; redeliver.
		w.finish(false)
		return
	}
	w.finish(true)
}

// finish settles one delivery attempt's accounting and sends the cart
// home.
func (w *shuttleWorker) finish(delivered bool) {
	r := w.run
	w.backoff = 0
	if delivered {
		r.res.Deliveries++
		r.s.tel.deliveries.Inc()
		w.consecFails = 0
	} else {
		r.claimed-- // slot back for redelivery
		r.res.Retries++
		r.s.tel.retries.Inc()
		if r.res.Retries > r.maxRetries {
			r.fatal = fmt.Errorf("%w: %d retries", ErrRetriesExhausted, r.res.Retries)
			return
		}
		if b := r.s.backoffDelay(w.consecFails); b > 0 {
			r.s.stats.Backoffs++
			r.s.stats.BackoffWait += b
			w.backoff = b
		}
		w.consecFails++
	}
	r.s.Close(w.id, w.closeDoneFn)
}

// closeDone handles the cart's return to the library and re-enters the
// loop, via the retry backoff when one is pending.
func (w *shuttleWorker) closeDone(err error) {
	r := w.run
	if err != nil {
		if !errors.Is(err, ErrLaunchTimeout) {
			r.fatal = fmt.Errorf("dhlsys: close cart %d: %w", w.id, err)
			return
		}
		// The cart made it home regardless; record and keep going.
		r.res.Timeouts++
		r.res.FailureErrors = append(r.res.FailureErrors, err)
	}
	if w.backoff > 0 {
		r.s.Engine.MustAfter(w.backoff, evRetryBackoff, w.loopFn)
		return
	}
	w.loop()
}
