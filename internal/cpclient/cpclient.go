// Package cpclient is the overload-aware control-plane client: the
// counterpart of the server's admission layer (internal/admit). Where the
// server sheds with CodeServerBusy plus a retry_after_s hint, this client
// honours the hint, backs off with seeded jittered-exponential delays,
// and spends from a retry budget so a degraded server is never buried
// under synchronised retry storms.
//
// Three pieces compose, and are exported separately so cmd/dhlload can
// drive them on a virtual clock:
//
//   - Policy prices the wait before retry attempt N: jittered exponential
//     backoff with the server's retry-after hint as a floor. The jitter
//     RNG is seeded, so a fixed seed yields a byte-identical delay
//     sequence.
//   - Budget is a token-bucket circuit breaker over retries: each retry
//     spends one token, each success earns a fraction back. When the
//     budget is dry the client fails fast instead of amplifying overload
//     (the classic retry-budget rule: retry rate is bounded by a fraction
//     of the success rate).
//   - Client is the blocking TCP client: lazy dial, per-attempt deadlines
//     clipped to the caller's overall deadline, automatic re-dial after
//     transport failures, and retryable-vs-terminal error classification.
package cpclient

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/controlplane"
)

// RetryOptions shapes the backoff policy and retry budget. Zero fields
// take the documented defaults.
type RetryOptions struct {
	// MaxAttempts is the total number of tries including the first;
	// default 4. 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; default 50ms.
	BaseDelay time.Duration
	// Multiplier grows the delay per attempt; default 2.
	Multiplier float64
	// MaxDelay caps the un-jittered backoff; default 5s.
	MaxDelay time.Duration
	// Jitter is the half-width of the multiplicative jitter band: a delay
	// d becomes uniform in [d*(1-Jitter), d*(1+Jitter)]. Default 0.2;
	// negative disables jitter.
	Jitter float64
	// Seed seeds the jitter RNG; the same seed replays the same delay
	// sequence. Default 1.
	Seed int64
	// BudgetBurst is the retry-token reserve a fresh client may burn
	// before any success; default 10. Each retry spends one token.
	BudgetBurst float64
	// BudgetPerSuccess is the fraction of a token earned back per
	// successful request (bounding steady-state retry rate to that
	// fraction of the success rate); default 0.1.
	BudgetPerSuccess float64
}

func (o RetryOptions) withDefaults() RetryOptions {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.BaseDelay <= 0 {
		o.BaseDelay = 50 * time.Millisecond
	}
	if o.Multiplier <= 1 {
		o.Multiplier = 2
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 5 * time.Second
	}
	if o.Jitter == 0 {
		o.Jitter = 0.2
	}
	if o.Jitter < 0 {
		o.Jitter = 0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.BudgetBurst <= 0 {
		o.BudgetBurst = 10
	}
	if o.BudgetPerSuccess <= 0 {
		o.BudgetPerSuccess = 0.1
	}
	return o
}

// Policy prices retry delays. Not safe for concurrent use; each
// connection (or simulated client) owns one.
type Policy struct {
	opt RetryOptions
	rng *rand.Rand
}

// NewPolicy builds a policy; zero option fields take defaults.
func NewPolicy(opt RetryOptions) *Policy {
	opt = opt.withDefaults()
	return &Policy{opt: opt, rng: rand.New(rand.NewSource(opt.Seed))}
}

// Attempts reports the effective attempt cap.
func (p *Policy) Attempts() int { return p.opt.MaxAttempts }

// Backoff returns the wait before retry number retry (1-based: 1 follows
// the first failure). hint is the server's retry-after suggestion and
// acts as a floor — the server knows its backlog better than the client's
// exponential guess — while jitter desynchronises the herd around it.
func (p *Policy) Backoff(retry int, hint time.Duration) time.Duration {
	if retry < 1 {
		retry = 1
	}
	d := float64(p.opt.BaseDelay)
	for i := 1; i < retry; i++ {
		d *= p.opt.Multiplier
		if d >= float64(p.opt.MaxDelay) {
			break
		}
	}
	if d > float64(p.opt.MaxDelay) {
		d = float64(p.opt.MaxDelay)
	}
	if h := float64(hint); h > d {
		d = h
	}
	if j := p.opt.Jitter; j > 0 {
		d *= 1 - j + 2*j*p.rng.Float64()
	}
	return time.Duration(d)
}

// Budget is the retry circuit breaker. Safe for concurrent use so one
// budget can be shared by every connection talking to one server — which
// is exactly how retry budgets are meant to be scoped.
type Budget struct {
	mu sync.Mutex
	//dhllint:guardedby mu
	tokens float64

	burst      float64
	perSuccess float64
}

// NewBudget builds a budget with the given burst reserve and per-success
// earn rate (non-positive values take the RetryOptions defaults).
func NewBudget(burst, perSuccess float64) *Budget {
	if burst <= 0 {
		burst = 10
	}
	if perSuccess <= 0 {
		perSuccess = 0.1
	}
	return &Budget{tokens: burst, burst: burst, perSuccess: perSuccess}
}

// Withdraw takes one retry token; false means the budget is exhausted and
// the caller must fail fast rather than retry.
func (b *Budget) Withdraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Success earns back the per-success fraction, capped at the burst.
func (b *Budget) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += b.perSuccess
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// Tokens reports the current reserve.
func (b *Budget) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

// RetryableCode reports whether a structured server error code marks a
// transient condition worth retrying. Overload sheds and busy physical
// resources clear with time; validation and state errors do not.
func RetryableCode(code string) bool {
	switch code {
	case controlplane.CodeServerBusy,
		controlplane.CodeCartBusy,
		controlplane.CodeLaunchTimeout:
		return true
	default:
		return false
	}
}

// Retryable classifies one attempt's outcome: transport errors are always
// retryable (the exchange may not have reached the server — note the API's
// ops are idempotent-safe to repeat: open/close converge, read/write
// re-simulate), server responses retry only on transient codes.
func Retryable(resp controlplane.Response, err error) bool {
	if err != nil {
		return true
	}
	if resp.OK {
		return false
	}
	return RetryableCode(resp.Code)
}

// ErrBudgetExhausted marks a retry suppressed by the budget breaker.
var ErrBudgetExhausted = errors.New("cpclient: retry budget exhausted")

// Options configures a Client.
type Options struct {
	// Addr is the server's TCP address.
	Addr string
	// DialTimeout bounds each (re)connect; default 2s.
	DialTimeout time.Duration
	// AttemptTimeout bounds one request/response exchange; default 10s.
	// The effective per-attempt deadline is clipped to the caller's
	// overall deadline (deadline propagation).
	AttemptTimeout time.Duration
	// Retry shapes backoff and the retry budget.
	Retry RetryOptions
	// Budget, when non-nil, replaces the client's private budget —
	// share one across clients to scope the breaker per server.
	Budget *Budget
	// Dial, Sleep, Clock are injection points for tests and the
	// deterministic harness; nil means net.DialTimeout, time.Sleep,
	// time.Now.
	Dial  func(addr string, timeout time.Duration) (net.Conn, error)
	Sleep func(time.Duration)
	Clock func() time.Time
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = 10 * time.Second
	}
	if o.Dial == nil {
		o.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

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

// Client is a blocking control-plane client with retries. Safe for
// concurrent use; requests are serialised over one connection (the wire
// protocol is strictly request/response). Close from another goroutine
// severs an in-flight exchange.
type Client struct {
	opt    Options
	policy *Policy
	budget *Budget

	// exMu serialises request/response exchanges (held across I/O).
	exMu sync.Mutex

	mu sync.Mutex
	//dhllint:guardedby mu
	conn net.Conn
	//dhllint:guardedby mu
	br *bufio.Reader
	//dhllint:guardedby mu
	closed bool
	//dhllint:guardedby mu
	stats Stats
}

// New builds a client; it does not connect until the first request.
func New(opt Options) *Client {
	opt = opt.withDefaults()
	c := &Client{opt: opt, policy: NewPolicy(opt.Retry)}
	if opt.Budget != nil {
		c.budget = opt.Budget
	} else {
		r := opt.Retry.withDefaults()
		c.budget = NewBudget(r.BudgetBurst, r.BudgetPerSuccess)
	}
	return c
}

// Budget exposes the client's (possibly shared) retry budget.
func (c *Client) Budget() *Budget { return c.budget }

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close severs the connection; in-flight exchanges fail.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		c.br = nil
		return err
	}
	return nil
}

// ErrClosed reports a request on a closed client.
var ErrClosed = errors.New("cpclient: client closed")

// Do performs one request with retries, bounded only by AttemptTimeout
// per attempt and the retry policy overall.
func (c *Client) Do(req controlplane.Request) (controlplane.Response, error) {
	return c.DoDeadline(req, time.Time{})
}

// DoDeadline performs one request with retries, never exceeding the
// overall deadline (zero means none): each attempt's I/O deadline is the
// earlier of AttemptTimeout and the overall deadline, and a retry whose
// backoff would overshoot the deadline is abandoned immediately — the
// deadline propagates rather than being discovered by timing out.
func (c *Client) DoDeadline(req controlplane.Request, deadline time.Time) (controlplane.Response, error) {
	var (
		lastResp controlplane.Response
		lastErr  error
	)
	c.mu.Lock()
	c.stats.Requests++
	c.mu.Unlock()
	for attempt := 1; ; attempt++ {
		resp, err := c.attempt(req, deadline)
		c.note(func(s *Stats) {
			s.Attempts++
			if err != nil {
				s.TransportErrors++
			} else if resp.Code == controlplane.CodeServerBusy {
				s.BusyResponses++
			}
		})
		if err == nil && !Retryable(resp, nil) {
			if resp.OK {
				c.budget.Success()
			}
			return resp, nil
		}
		lastResp, lastErr = resp, err

		if attempt >= c.policy.Attempts() {
			break
		}
		if !c.budget.Withdraw() {
			c.note(func(s *Stats) { s.BudgetDenied++ })
			if lastErr == nil {
				lastErr = ErrBudgetExhausted
			} else {
				lastErr = fmt.Errorf("%w (after %v)", ErrBudgetExhausted, lastErr)
			}
			break
		}
		var hint time.Duration
		if err == nil && resp.RetryAfterS > 0 {
			hint = time.Duration(resp.RetryAfterS * float64(time.Second))
		}
		wait := c.policy.Backoff(attempt, hint)
		if !deadline.IsZero() && c.opt.Clock().Add(wait).After(deadline) {
			// The backoff would outlive the caller's deadline: give the
			// token back conceptually by failing fast instead of sleeping
			// into certain failure.
			c.note(func(s *Stats) { s.DeadlineDenied++ })
			if lastErr == nil {
				lastErr = fmt.Errorf("cpclient: deadline would expire during %v backoff", wait)
			}
			break
		}
		c.note(func(s *Stats) { s.Retries++ })
		c.opt.Sleep(wait)
	}
	if lastErr != nil {
		return lastResp, lastErr
	}
	return lastResp, nil
}

func (c *Client) note(f func(*Stats)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f(&c.stats)
}

// ensureConn returns the live connection and reader, dialling if needed.
func (c *Client) ensureConn(deadline time.Time) (net.Conn, *bufio.Reader, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, nil, ErrClosed
	}
	if c.conn != nil {
		conn, br := c.conn, c.br
		c.mu.Unlock()
		return conn, br, nil
	}
	c.mu.Unlock()

	dialTO := c.opt.DialTimeout
	if !deadline.IsZero() {
		if rem := deadline.Sub(c.opt.Clock()); rem <= 0 {
			return nil, nil, fmt.Errorf("cpclient: deadline exceeded before dial")
		} else if rem < dialTO {
			dialTO = rem
		}
	}
	conn, err := c.opt.Dial(c.opt.Addr, dialTO)
	if err != nil {
		return nil, nil, fmt.Errorf("cpclient: dial: %w", err)
	}
	br := bufio.NewReader(conn)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		conn.Close()
		return nil, nil, ErrClosed
	}
	c.conn = conn
	c.br = br
	c.stats.Redials++
	return conn, br, nil
}

// attempt performs one exchange, (re)dialling as needed. exMu serialises
// exchanges; the state mutex is held only for pointer swaps so Close can
// sever an in-flight exchange.
func (c *Client) attempt(req controlplane.Request, deadline time.Time) (controlplane.Response, error) {
	c.exMu.Lock()
	defer c.exMu.Unlock()
	conn, br, err := c.ensureConn(deadline)
	if err != nil {
		return controlplane.Response{}, err
	}

	attemptDL := c.opt.Clock().Add(c.opt.AttemptTimeout)
	if !deadline.IsZero() && deadline.Before(attemptDL) {
		attemptDL = deadline
	}
	if err := conn.SetDeadline(attemptDL); err != nil {
		c.drop()
		return controlplane.Response{}, fmt.Errorf("cpclient: set deadline: %w", err)
	}

	frame, err := controlplane.AppendRequest(nil, req)
	if err != nil {
		return controlplane.Response{}, fmt.Errorf("cpclient: encode: %w", err)
	}
	if _, err := conn.Write(frame); err != nil {
		c.drop()
		return controlplane.Response{}, fmt.Errorf("cpclient: send: %w", err)
	}
	line, err := br.ReadBytes('\n')
	if err != nil {
		c.drop()
		return controlplane.Response{}, fmt.Errorf("cpclient: recv: %w", err)
	}
	resp, err := controlplane.DecodeResponse(line)
	if err != nil {
		c.drop()
		return controlplane.Response{}, fmt.Errorf("cpclient: decode: %w", err)
	}
	if !resp.OK && resp.Code == controlplane.CodeBadRequest {
		// The server drops the connection after a bad-request reply; don't
		// reuse a stream the server has abandoned.
		c.drop()
	}
	return resp, nil
}

// drop discards the connection so the next attempt re-dials.
func (c *Client) drop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.br = nil
	}
}

// Convenience wrappers mirroring the §III-D API.

// Open shuttles a cart to the endpoint.
func (c *Client) Open(cart int) (controlplane.Response, error) {
	return c.Do(controlplane.Request{Op: controlplane.OpOpen, Cart: cart})
}

// CloseCart returns a cart to the library.
func (c *Client) CloseCart(cart int) (controlplane.Response, error) {
	return c.Do(controlplane.Request{Op: controlplane.OpClose, Cart: cart})
}

// Read reads bytes from a docked cart.
func (c *Client) Read(cart int, bytes float64) (controlplane.Response, error) {
	return c.Do(controlplane.Request{Op: controlplane.OpRead, Cart: cart, Bytes: bytes})
}

// Write writes bytes to a docked cart.
func (c *Client) Write(cart int, bytes float64) (controlplane.Response, error) {
	return c.Do(controlplane.Request{Op: controlplane.OpWrite, Cart: cart, Bytes: bytes})
}

// Status fetches the deployment counters.
func (c *Client) Status() (controlplane.Response, error) {
	return c.Do(controlplane.Request{Op: controlplane.OpStatus})
}

// Metrics fetches the Prometheus exposition.
func (c *Client) Metrics() (controlplane.Response, error) {
	return c.Do(controlplane.Request{Op: controlplane.OpMetrics})
}
