// Package admit is the overload-protection layer of the control plane:
// a deterministic admission controller that decides, per request, whether
// to run it now, let it wait in a bounded queue, or shed it with an
// explicit retry-after hint.
//
// It models the control plane's one executor with three defences:
//
//   - A token-bucket rate limiter bounds sustained admission rate.
//   - One executor slot plus a bounded waiting room replace unbounded
//     queueing: once MaxQueue waiters are parked, further
//     requests are rejected immediately with Outcome.RetryAfter derived
//     from the queue depth and a smoothed service-time estimate. An
//     arrival runs at once only when the slot is free and nobody waits,
//     so no arrival overtakes a queued request.
//   - Brownout mode sheds expensive work first: when the queue passes
//     half its capacity, launch-class requests (cart
//     open/close — the multi-second operations) are rejected while
//     cheaper IO continues to queue.
//
// Status and metrics reads never arrive here, and no connection has two
// requests here at once: see controlplane.Server.
//
// Determinism contract: the controller never reads the wall clock, an
// RNG, or the environment. Every method takes the caller's notion of
// "now" explicitly, so a virtual-clock harness (cmd/dhlload) replaying
// the same arrival sequence observes byte-identical decisions, and the
// live server simply passes time.Now(). All arithmetic is plain float64
// and integer nanoseconds with no map iteration.
//
// Thread safety: every mutable field is guarded by one mutex and
// annotated //dhllint:guardedby, so the lockcheck pass proves the
// discipline by construction.
package admit

import (
	"errors"
	"sync"
	"time"
)

// Class is a request priority class. Lower classes are shed later.
type Class int

const (
	// ClassIO: read/write against a docked cart.
	ClassIO Class = iota
	// ClassLaunch: cart open/close — the expensive multi-second
	// operations, first to go in brownout.
	ClassLaunch

	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassIO:
		return "io"
	case ClassLaunch:
		return "launch"
	default:
		return "unknown"
	}
}

// Classes lists the priority classes in shed order (last shed first).
func Classes() []Class { return []Class{ClassIO, ClassLaunch} }

// Reason explains a shed decision.
type Reason int

const (
	// ReasonNone: the request was admitted.
	ReasonNone Reason = iota
	// ReasonRateLimited: the token bucket was empty.
	ReasonRateLimited
	// ReasonQueueFull: the waiting room was at MaxQueue.
	ReasonQueueFull
	// ReasonBrownout: the queue passed the brownout threshold and the
	// request's class is shed under brownout.
	ReasonBrownout

	numReasons
)

// String implements fmt.Stringer.
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "admitted"
	case ReasonRateLimited:
		return "rate-limited"
	case ReasonQueueFull:
		return "queue-full"
	case ReasonBrownout:
		return "brownout"
	default:
		return "unknown"
	}
}

// Options configures a Controller. The zero value is not useful; New
// applies the documented defaults to zero fields. There is one executor
// slot: the control plane's simulation runs one request at a time.
type Options struct {
	// MaxQueue bounds the waiting room behind the executor. Arrivals
	// beyond it are shed with ReasonQueueFull. Default DefaultMaxQueue.
	MaxQueue int
	// Rate is the token-bucket sustained admission rate in requests per
	// second; 0 disables rate limiting. The bucket holds max(Rate, 1)
	// tokens.
	Rate float64
}

// DefaultMaxQueue is the waiting room's default depth.
const DefaultMaxQueue = 64

const (
	// brownoutFrac is the queue-depth fraction of MaxQueue at which
	// brownout begins (launch-class arrivals shed).
	brownoutFrac = 0.5
	// retryAfterMin and retryAfterMax clamp the retry-after hint carried
	// by shed outcomes.
	retryAfterMin = 50 * time.Millisecond
	retryAfterMax = 10 * time.Second
	// serviceTimeHint seeds the smoothed per-request service-time
	// estimate before any request has completed.
	serviceTimeHint = 100 * time.Millisecond
)

func (o Options) withDefaults() Options {
	if o.MaxQueue <= 0 {
		o.MaxQueue = DefaultMaxQueue
	}
	return o
}

// Outcome is an admission decision.
type Outcome struct {
	// Admitted: the request may proceed (immediately when Queued is
	// false, after waiting for an executor slot when true).
	Admitted bool
	// Queued: the request was parked in the waiting room; the caller
	// must call Started when it wins an executor slot or Abandon if it
	// gives up waiting.
	Queued bool
	// Reason explains a rejection (ReasonNone when admitted).
	Reason Reason
	// RetryAfter hints when a shed request should retry. Zero when
	// admitted.
	RetryAfter time.Duration
}

// Ticket tracks one admitted request through the controller. Tickets are
// owned by a single request handler and must not be shared.
type Ticket struct {
	class  Class
	start  time.Time
	queued bool
	done   bool
}

// ErrTicketReused reports a ticket handed back twice.
var ErrTicketReused = errors.New("admit: ticket already released")

// ClassCounters is the per-class admission ledger inside Stats.
type ClassCounters struct {
	Class       string `json:"class"`
	Admitted    uint64 `json:"admitted"`
	Queued      uint64 `json:"queued"`
	RateLimited uint64 `json:"shed_rate_limited"`
	QueueFull   uint64 `json:"shed_queue_full"`
	Brownout    uint64 `json:"shed_brownout"`
	Abandoned   uint64 `json:"abandoned"`
}

// Shed is the total number of rejected requests in this class.
func (c ClassCounters) Shed() uint64 {
	return c.RateLimited + c.QueueFull + c.Brownout
}

// Stats is a deterministic point-in-time snapshot of the controller:
// classes appear in fixed Class order, never map order.
type Stats struct {
	InFlight    int             `json:"in_flight"`
	QueueDepth  int             `json:"queue_depth"`
	Brownout    bool            `json:"brownout"`
	EstServiceS float64         `json:"est_service_s"`
	Classes     []ClassCounters `json:"classes"`
}

// Controller is the admission state machine. Safe for concurrent use.
type Controller struct {
	opt Options

	mu sync.Mutex
	//dhllint:guardedby mu
	inflight int
	//dhllint:guardedby mu
	queued int
	//dhllint:guardedby mu
	tokens float64
	//dhllint:guardedby mu
	lastRefill time.Time
	//dhllint:guardedby mu
	haveRefill bool
	//dhllint:guardedby mu
	estService float64 // smoothed seconds per request
	//dhllint:guardedby mu
	admitted [numClasses]uint64
	//dhllint:guardedby mu
	everQueued [numClasses]uint64
	//dhllint:guardedby mu
	shed [numClasses][numReasons]uint64
	//dhllint:guardedby mu
	abandoned [numClasses]uint64
}

// New builds a controller; zero Options fields take the documented
// defaults.
func New(opt Options) *Controller {
	opt = opt.withDefaults()
	return &Controller{
		opt:        opt,
		tokens:     opt.burst(),
		estService: serviceTimeHint.Seconds(),
	}
}

// burst is the token bucket's capacity: max(Rate, 1) when rate limiting
// is on, 0 when it is off.
func (o Options) burst() float64 {
	if o.Rate <= 0 {
		return 0
	}
	return max(o.Rate, 1)
}

// refillLocked advances the token bucket to now. Callers hold mu.
func (c *Controller) refillLocked(now time.Time) {
	if c.opt.Rate <= 0 {
		return
	}
	if !c.haveRefill {
		c.lastRefill = now
		c.haveRefill = true
		return
	}
	dt := now.Sub(c.lastRefill).Seconds()
	if dt <= 0 {
		return
	}
	c.tokens = min(c.tokens+dt*c.opt.Rate, c.opt.burst())
	c.lastRefill = now
}

// retryAfterLocked derives the shed hint from the backlog: the time for
// the executor to clear the current queue at the smoothed service rate,
// clamped to [retryAfterMin, retryAfterMax]. Callers hold mu.
func (c *Controller) retryAfterLocked() time.Duration {
	backlog := float64(c.queued+c.inflight) * c.estService
	return clampRetryAfter(time.Duration(backlog * float64(time.Second)))
}

// tokenRetryLocked is the hint for a rate-limit shed: time until one
// token accrues. Callers hold mu.
func (c *Controller) tokenRetryLocked() time.Duration {
	if c.opt.Rate <= 0 {
		return retryAfterMin
	}
	need := max(1-c.tokens, 0)
	return clampRetryAfter(time.Duration(need / c.opt.Rate * float64(time.Second)))
}

// clampRetryAfter clamps a shed hint to [retryAfterMin, retryAfterMax].
func clampRetryAfter(d time.Duration) time.Duration {
	return min(max(d, retryAfterMin), retryAfterMax)
}

// brownoutLocked reports whether the queue has passed the brownout
// threshold. Callers hold mu.
func (c *Controller) brownoutLocked() bool {
	return float64(c.queued) >= brownoutFrac*float64(c.opt.MaxQueue)
}

// ArriveInto decides one request, filling the caller-owned ticket t,
// which it overwrites. When the outcome is Admitted, *t tracks the request
// and the caller must hand it back via Done (after running) or Abandon (if
// it gave up while queued); otherwise it reads as released. A handler that
// serves one request at a time can reuse one Ticket and arrive without
// allocating.
func (c *Controller) ArriveInto(t *Ticket, class Class, now time.Time) Outcome {
	if class < 0 || class >= numClasses {
		class = ClassIO
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	*t = Ticket{done: true}
	c.refillLocked(now)

	// Rate limit first: it bounds offered work before any state is
	// touched.
	if c.opt.Rate > 0 && c.tokens < 1 {
		c.shed[class][ReasonRateLimited]++
		return Outcome{Reason: ReasonRateLimited, RetryAfter: c.tokenRetryLocked()}
	}

	// Run at once only when the slot is free and nobody waits for it: a
	// queued request that has not yet started keeps its turn.
	if c.inflight == 0 && c.queued == 0 {
		c.inflight++
		c.admitted[class]++
		c.chargeLocked()
		*t = Ticket{class: class, start: now}
		return Outcome{Admitted: true}
	}

	// Executor busy or spoken for: queue or shed.
	if c.queued >= c.opt.MaxQueue {
		c.shed[class][ReasonQueueFull]++
		return Outcome{Reason: ReasonQueueFull, RetryAfter: c.retryAfterLocked()}
	}
	if class == ClassLaunch && c.brownoutLocked() {
		c.shed[class][ReasonBrownout]++
		return Outcome{Reason: ReasonBrownout, RetryAfter: c.retryAfterLocked()}
	}
	c.queued++
	c.everQueued[class]++
	c.chargeLocked()
	*t = Ticket{class: class, start: now, queued: true}
	return Outcome{Admitted: true, Queued: true}
}

// chargeLocked spends a token. Callers hold mu.
func (c *Controller) chargeLocked() {
	if c.opt.Rate > 0 {
		c.tokens = max(c.tokens-1, 0)
	}
}

// Started promotes a queued ticket to running once the caller wins an
// executor slot; it restarts the ticket's service-time clock. A no-op
// for tickets admitted immediately.
func (c *Controller) Started(t *Ticket, now time.Time) {
	if t == nil || !t.queued {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t.queued = false
	c.queued--
	c.inflight++
	c.admitted[t.class]++
	t.start = now
}

// Abandon releases a still-queued ticket whose caller gave up waiting
// (request timeout). Abandoned requests count separately from sheds.
func (c *Controller) Abandon(t *Ticket) error {
	if t == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.done {
		return ErrTicketReused
	}
	t.done = true
	if t.queued {
		t.queued = false
		c.queued--
	} else {
		c.inflight--
	}
	c.abandoned[t.class]++
	return nil
}

// Done releases a running ticket and folds its service time into the
// smoothed estimate that prices retry-after hints.
func (c *Controller) Done(t *Ticket, now time.Time) error {
	if t == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.done {
		return ErrTicketReused
	}
	t.done = true
	c.inflight--
	if dur := now.Sub(t.start).Seconds(); dur > 0 {
		// EWMA with alpha 0.2: stable enough to price hints, fast
		// enough to track a chaos-degraded service rate.
		c.estService = 0.8*c.estService + 0.2*dur
	}
	return nil
}

// Snapshot returns the controller's ledger. Classes are listed in fixed
// Class order, making any serialisation byte-deterministic.
func (c *Controller) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		InFlight:    c.inflight,
		QueueDepth:  c.queued,
		Brownout:    c.brownoutLocked(),
		EstServiceS: c.estService,
	}
	s.Classes = make([]ClassCounters, 0, int(numClasses))
	for _, cl := range Classes() {
		s.Classes = append(s.Classes, ClassCounters{
			Class:       cl.String(),
			Admitted:    c.admitted[cl],
			Queued:      c.everQueued[cl],
			RateLimited: c.shed[cl][ReasonRateLimited],
			QueueFull:   c.shed[cl][ReasonQueueFull],
			Brownout:    c.shed[cl][ReasonBrownout],
			Abandoned:   c.abandoned[cl],
		})
	}
	return s
}
