// Package cpclient is the overload-aware control-plane client: the
// counterpart of the server's admission layer (internal/admit). Where the
// server sheds with CodeServerBusy plus a retry_after_s hint, this client
// honours the hint, backs off with seeded jittered-exponential delays,
// and spends from a retry budget so a degraded server is never buried
// under synchronised retry storms.
//
// Three pieces compose. Policy and Budget are exported so cmd/dhlload can
// drive the same rule on a virtual clock:
//
//   - Policy is the one retry rule: Next takes an attempt's outcome and
//     decides, in order, on the attempt cap, whether the code is
//     retryable, the budget, and the jittered exponential backoff with the
//     server's retry-after hint as a floor. The jitter RNG is seeded, so a
//     fixed seed yields a byte-identical delay sequence.
//   - Budget is a token-bucket circuit breaker over retries: each retry
//     spends one token, each success earns a fraction back. When the
//     budget is dry the client fails fast instead of amplifying overload
//     (the classic retry-budget rule: retry rate is bounded by a fraction
//     of the success rate).
//   - Client is the retry loop over one TCP connection: lazy dial,
//     per-attempt deadlines clipped to the caller's overall deadline,
//     re-dial after a failed exchange, and retryable-vs-terminal error
//     classification. Every exchange is controlplane.Client.Do, so this
//     package frames nothing itself.
package cpclient

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/controlplane"
)

// The retry rule's parameters.
const (
	// maxAttempts is the number of tries per request, the first included.
	maxAttempts = 4
	// baseDelay is the backoff before the first retry; each further retry
	// multiplies it by multiplier, up to maxDelay.
	baseDelay  = 50 * time.Millisecond
	multiplier = 2
	maxDelay   = 5 * time.Second
	// jitter is the half-width of the multiplicative jitter band: a delay
	// d becomes uniform in [d*(1-jitter), d*(1+jitter)].
	jitter = 0.2
	// budgetBurst is the retry-token reserve of a fresh budget. A budget
	// counts whole tenths of a token: a retry spends tenthsPerToken of
	// them and each success earns one back, bounding the steady-state
	// retry rate to a tenth of the success rate.
	budgetBurst    = 10
	tenthsPerToken = 10
)

// Verdict is the retry rule's decision on one attempt's outcome.
type Verdict int

const (
	// Stop: the attempt succeeded, failed terminally or was the last one.
	Stop Verdict = iota
	// Denied: the failure is retryable, but the budget holds no token.
	Denied
	// Retry: a token is spent; wait the returned delay, then try again.
	Retry
)

// Policy is one client's retry rule: the attempt cap, the retryable
// codes, the shared budget and a seeded jittered backoff. Not safe for
// concurrent use; each connection (or simulated client) owns one.
type Policy struct {
	rng    *rand.Rand
	budget *Budget
}

// NewPolicy builds a policy that spends from budget. The same seed
// replays the same delay sequence.
func NewPolicy(seed int64, budget *Budget) *Policy {
	return &Policy{rng: rand.New(rand.NewSource(seed)), budget: budget}
}

// Next applies the rule to attempt number attempt (1-based), which
// returned resp and err. A success earns budget back and stops. A
// failure stops at the attempt cap or on a terminal code; otherwise it
// takes a budget token, and with one returns Retry and the backoff
// before the next attempt, floored by the server's retry-after hint.
func (p *Policy) Next(attempt int, resp controlplane.Response, err error) (Verdict, time.Duration) {
	if err == nil && resp.OK {
		p.budget.Success()
		return Stop, 0
	}
	if attempt >= maxAttempts || !retryable(resp, err) {
		return Stop, 0
	}
	if !p.budget.Withdraw() {
		return Denied, 0
	}
	var hint time.Duration
	if err == nil {
		hint = time.Duration(resp.RetryAfterS * float64(time.Second))
	}
	return Retry, p.backoff(attempt, hint)
}

// backoff returns the wait before retry number retry (1-based: 1 follows
// the first failure). hint is the server's retry-after suggestion and
// acts as a floor — the server knows its backlog better than the client's
// exponential guess — while jitter desynchronises the herd around it.
func (p *Policy) backoff(retry int, hint time.Duration) time.Duration {
	d := float64(baseDelay)
	for i := 1; i < retry && d < float64(maxDelay); i++ {
		d *= multiplier
	}
	d = min(d, float64(maxDelay))
	if h := float64(hint); h > d {
		d = h
	}
	d *= 1 - jitter + 2*jitter*p.rng.Float64()
	return time.Duration(d)
}

// Budget is the retry circuit breaker. Safe for concurrent use so one
// budget can be shared by every connection talking to one server — which
// is exactly how retry budgets are meant to be scoped.
type Budget struct {
	mu sync.Mutex
	//dhllint:guardedby mu
	tenths int
}

// NewBudget builds a full budget.
func NewBudget() *Budget { return &Budget{tenths: budgetBurst * tenthsPerToken} }

// Withdraw takes one retry token; false means the budget is exhausted and
// the caller must fail fast rather than retry.
func (b *Budget) Withdraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tenths < tenthsPerToken {
		return false
	}
	b.tenths -= tenthsPerToken
	return true
}

// refund returns the token Withdraw took for a retry that was then not
// made, capped at the burst.
func (b *Budget) refund() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tenths = min(b.tenths+tenthsPerToken, budgetBurst*tenthsPerToken)
}

// Success earns back a tenth of a token, capped at the burst.
func (b *Budget) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tenths = min(b.tenths+1, budgetBurst*tenthsPerToken)
}

// retryable classifies one attempt's outcome: transport errors are always
// retryable (the exchange may not have reached the server — note the API's
// ops are idempotent-safe to repeat: open/close converge, read/write
// re-simulate). Of the server's error codes, overload sheds and busy
// physical resources clear with time and are retried; validation and
// state errors do not and are terminal.
func retryable(resp controlplane.Response, err error) bool {
	if err != nil {
		return true
	}
	if resp.OK {
		return false
	}
	switch resp.Code {
	case controlplane.CodeServerBusy,
		controlplane.CodeCartBusy,
		controlplane.CodeLaunchTimeout:
		return true
	default:
		return false
	}
}

// ErrBudgetExhausted marks a retry suppressed by the budget breaker.
var ErrBudgetExhausted = errors.New("cpclient: retry budget exhausted")

// Options configures a Client.
type Options struct {
	// Addr is the server's TCP address.
	Addr string
	// Budget, when non-nil, replaces the client's private budget —
	// share one across clients to scope the breaker per server.
	Budget *Budget
	// Seed seeds the retry jitter; the same seed replays the same delay
	// sequence.
	Seed int64
}

const (
	// dialTimeout bounds each (re)connect.
	dialTimeout = 2 * time.Second
	// attemptTimeout bounds one request/response exchange. The effective
	// per-attempt deadline is clipped to the caller's overall deadline
	// (deadline propagation).
	attemptTimeout = 10 * time.Second
)

// Stats counts client-side outcomes. All counters are cumulative.
type Stats struct {
	Requests        uint64 `json:"requests"`
	Attempts        uint64 `json:"attempts"`
	Retries         uint64 `json:"retries"`
	Redials         uint64 `json:"redials"`
	TransportErrors uint64 `json:"transport_errors"`
	BusyResponses   uint64 `json:"busy_responses"`
	BudgetDenied    uint64 `json:"budget_denied"`
	DeadlineDenied  uint64 `json:"deadline_denied"`
}

// Client is a blocking control-plane client with retries. A Client
// belongs to one goroutine: it holds one connection, and the wire
// protocol is strictly request/response. Only its Budget may be shared.
type Client struct {
	addr   string
	policy *Policy
	// dial and sleep are net.DialTimeout over TCP and time.Sleep; the
	// package's tests replace them.
	dial  func(addr string, timeout time.Duration) (net.Conn, error)
	sleep func(time.Duration)

	conn  net.Conn             // nil until the first attempt and after a drop
	wire  *controlplane.Client // the exchange over conn
	stats Stats
}

// New builds a client; it does not connect until the first request.
func New(opt Options) *Client {
	budget := opt.Budget
	if budget == nil {
		budget = NewBudget()
	}
	return &Client{
		addr:   opt.Addr,
		policy: NewPolicy(opt.Seed, budget),
		dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		},
		sleep: time.Sleep,
	}
}

// Stats returns the client's counters.
func (c *Client) Stats() Stats { return c.stats }

// Close closes the connection, if one is open; a later request dials
// afresh.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.wire = nil, nil
	return err
}

// Do performs one request with retries, never exceeding the overall
// deadline (zero means none): each attempt's I/O deadline is the earlier
// of attemptTimeout and the overall deadline, and a retry whose backoff
// would overshoot the deadline is abandoned immediately, its budget token
// returned — the deadline propagates rather than being discovered by
// timing out. An attempt that fails at or after the deadline ends the
// request, counted as an attempt only. A request that fails Validate
// returns that error without an attempt.
func (c *Client) Do(req controlplane.Request, deadline time.Time) (controlplane.Response, error) {
	c.stats.Requests++
	if err := req.Validate(); err != nil {
		return controlplane.Response{}, err
	}
	for attempt := 1; ; attempt++ {
		resp, err := c.attempt(req, deadline)
		c.stats.Attempts++
		if err != nil && !deadline.IsZero() && !time.Now().Before(deadline) {
			// The caller's own deadline ended the attempt, or came before
			// its dial: no retry can follow, so it is not a transport
			// fault, and the policy must not spend a token on it.
			return resp, err
		}
		if err != nil {
			c.stats.TransportErrors++
		} else if resp.Code == controlplane.CodeServerBusy {
			c.stats.BusyResponses++
		}
		verdict, wait := c.policy.Next(attempt, resp, err)
		switch {
		case verdict == Stop:
			return resp, err
		case verdict == Denied:
			c.stats.BudgetDenied++
			if err == nil {
				return resp, ErrBudgetExhausted
			}
			return resp, fmt.Errorf("%w (after %v)", ErrBudgetExhausted, err)
		case !deadline.IsZero() && time.Now().Add(wait).After(deadline):
			// The backoff would outlive the caller's deadline: fail fast
			// instead of sleeping into certain failure, and give back the
			// token Next took for the retry that will not happen.
			c.policy.budget.refund()
			c.stats.DeadlineDenied++
			if err == nil {
				err = fmt.Errorf("cpclient: deadline would expire during %v backoff", wait)
			}
			return resp, err
		}
		c.stats.Retries++
		c.sleep(wait)
	}
}

// attempt performs one exchange, dialling first if no connection is
// open. It drops the connection after a failed exchange, and after a
// bad-request reply, since the server closes the stream after one.
func (c *Client) attempt(req controlplane.Request, deadline time.Time) (controlplane.Response, error) {
	if c.conn == nil {
		if err := c.redial(deadline); err != nil {
			return controlplane.Response{}, err
		}
	}
	attemptDL := time.Now().Add(attemptTimeout)
	if !deadline.IsZero() && deadline.Before(attemptDL) {
		attemptDL = deadline
	}
	if err := c.conn.SetDeadline(attemptDL); err != nil {
		c.Close()
		return controlplane.Response{}, fmt.Errorf("cpclient: set deadline: %w", err)
	}
	resp, err := c.wire.Do(req)
	if err != nil || !resp.OK && resp.Code == controlplane.CodeBadRequest {
		c.Close()
	}
	return resp, err
}

// redial connects, with the dial timeout clipped to the deadline.
func (c *Client) redial(deadline time.Time) error {
	timeout := dialTimeout
	if !deadline.IsZero() {
		rem := time.Until(deadline)
		if rem <= 0 {
			return errors.New("cpclient: deadline exceeded before dial")
		}
		timeout = min(timeout, rem)
	}
	conn, err := c.dial(c.addr, timeout)
	if err != nil {
		return fmt.Errorf("cpclient: dial: %w", err)
	}
	c.conn, c.wire = conn, controlplane.NewClient(conn)
	c.stats.Redials++
	return nil
}
