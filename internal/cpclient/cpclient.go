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

// Client is a blocking control-plane client with retries. Safe for
// concurrent use; requests are serialised over one connection (the wire
// protocol is strictly request/response). Close from another goroutine
// severs an in-flight exchange.
type Client struct {
	addr   string
	policy *Policy
	// dial and sleep are net.DialTimeout over TCP and time.Sleep; the
	// package's tests replace them.
	dial  func(addr string, timeout time.Duration) (net.Conn, error)
	sleep func(time.Duration)

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

// Do performs one request with retries, bounded only by attemptTimeout
// per attempt and the retry policy overall.
func (c *Client) Do(req controlplane.Request) (controlplane.Response, error) {
	return c.DoDeadline(req, time.Time{})
}

// DoDeadline performs one request with retries, never exceeding the
// overall deadline (zero means none): each attempt's I/O deadline is the
// earlier of attemptTimeout and the overall deadline, and a retry whose
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
		lastResp, lastErr = resp, err
		verdict, wait := c.policy.Next(attempt, resp, err)
		if verdict == Stop {
			break
		}
		if verdict == Denied {
			c.note(func(s *Stats) { s.BudgetDenied++ })
			if lastErr == nil {
				lastErr = ErrBudgetExhausted
			} else {
				lastErr = fmt.Errorf("%w (after %v)", ErrBudgetExhausted, lastErr)
			}
			break
		}
		if !deadline.IsZero() && time.Now().Add(wait).After(deadline) {
			// The backoff would outlive the caller's deadline: fail fast
			// instead of sleeping into certain failure.
			c.note(func(s *Stats) { s.DeadlineDenied++ })
			if lastErr == nil {
				lastErr = fmt.Errorf("cpclient: deadline would expire during %v backoff", wait)
			}
			break
		}
		c.note(func(s *Stats) { s.Retries++ })
		c.sleep(wait)
	}
	return lastResp, lastErr
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

	dialTO := dialTimeout
	if !deadline.IsZero() {
		if rem := deadline.Sub(time.Now()); rem <= 0 {
			return nil, nil, fmt.Errorf("cpclient: deadline exceeded before dial")
		} else if rem < dialTO {
			dialTO = rem
		}
	}
	conn, err := c.dial(c.addr, dialTO)
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

	attemptDL := time.Now().Add(attemptTimeout)
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
