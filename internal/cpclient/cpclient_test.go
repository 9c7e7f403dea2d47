package cpclient

import (
	"bufio"
	"encoding/json"
	"errors"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/controlplane"
	"repro/internal/dhlsys"
)

func TestPolicyDeterministicSequences(t *testing.T) {
	opt := RetryOptions{Seed: 42}
	a, b := NewPolicy(opt), NewPolicy(opt)
	for i := 1; i <= 8; i++ {
		da, db := a.Backoff(i, 0), b.Backoff(i, 0)
		if da != db {
			t.Fatalf("retry %d: same seed diverged: %v vs %v", i, da, db)
		}
	}
	other := NewPolicy(RetryOptions{Seed: 43})
	same := true
	x, y := NewPolicy(opt), other
	for i := 1; i <= 8; i++ {
		if x.Backoff(i, 0) != y.Backoff(i, 0) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jitter — RNG not wired")
	}
}

func TestPolicyBackoffShape(t *testing.T) {
	p := NewPolicy(RetryOptions{
		BaseDelay: 100 * time.Millisecond, Multiplier: 2,
		MaxDelay: 400 * time.Millisecond, Jitter: -1, // disable jitter
	})
	for i, want := range []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 400 * time.Millisecond, // capped
	} {
		if got := p.Backoff(i+1, 0); got != want {
			t.Errorf("retry %d: backoff = %v, want %v", i+1, got, want)
		}
	}
	// The server hint floors the exponential guess.
	if got := p.Backoff(1, 3*time.Second); got != 3*time.Second {
		t.Errorf("hinted backoff = %v, want the 3s hint", got)
	}
	// A hint below the exponential delay does not shrink it.
	if got := p.Backoff(3, time.Millisecond); got != 400*time.Millisecond {
		t.Errorf("small hint shrank backoff to %v", got)
	}
	// Jitter keeps the delay inside the ±J band around the target.
	pj := NewPolicy(RetryOptions{BaseDelay: 100 * time.Millisecond, Jitter: 0.2, Seed: 7})
	for i := 0; i < 100; i++ {
		d := pj.Backoff(1, 0)
		if d < 80*time.Millisecond || d > 120*time.Millisecond {
			t.Fatalf("jittered delay %v outside [80ms,120ms]", d)
		}
	}
}

func TestBudgetBreaker(t *testing.T) {
	b := NewBudget(2, 0.5)
	if !b.Withdraw() || !b.Withdraw() {
		t.Fatal("burst of 2 should allow two retries")
	}
	if b.Withdraw() {
		t.Fatal("third retry should be denied")
	}
	b.Success() // 0.5 tokens: still under the 1-token price
	if b.Withdraw() {
		t.Fatal("half a token must not buy a retry")
	}
	b.Success() // 1.0
	if !b.Withdraw() {
		t.Fatal("earned tokens should re-enable retries")
	}
	for i := 0; i < 100; i++ {
		b.Success()
	}
	if got := b.Tokens(); got != 2 {
		t.Errorf("tokens cap at burst: got %v, want 2", got)
	}
}

func TestRetryableClassification(t *testing.T) {
	retryable := []string{
		controlplane.CodeServerBusy, controlplane.CodeCartBusy,
		controlplane.CodeLaunchTimeout,
	}
	terminal := []string{
		controlplane.CodeBadRequest, controlplane.CodeUnknownCart,
		controlplane.CodeNotAtLibrary, controlplane.CodeNotDocked,
		controlplane.CodeCartFailed, controlplane.CodeDegradedRead,
		controlplane.CodeStorage, controlplane.CodeNoTelemetry,
		controlplane.CodeInternal, controlplane.CodeError,
	}
	for _, code := range retryable {
		if !Retryable(controlplane.Response{OK: false, Code: code}, nil) {
			t.Errorf("code %q should be retryable", code)
		}
	}
	for _, code := range terminal {
		if Retryable(controlplane.Response{OK: false, Code: code}, nil) {
			t.Errorf("code %q should be terminal", code)
		}
	}
	if Retryable(controlplane.Response{OK: true}, nil) {
		t.Error("success is not retryable")
	}
	if !Retryable(controlplane.Response{}, errors.New("conn reset")) {
		t.Error("transport errors are retryable")
	}
}

// scriptServer serves canned responses over an in-memory pipe: each Dial
// yields a fresh connection whose server side answers from the shared
// script (one entry per request; nil severs the connection instead of
// answering).
type scriptServer struct {
	t      *testing.T
	script chan *controlplane.Response
}

func newScriptServer(t *testing.T, script ...*controlplane.Response) *scriptServer {
	ch := make(chan *controlplane.Response, len(script))
	for _, r := range script {
		ch <- r
	}
	return &scriptServer{t: t, script: ch}
}

func (s *scriptServer) dial(string, time.Duration) (net.Conn, error) {
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		br := bufio.NewReader(server)
		enc := json.NewEncoder(server)
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				return
			}
			var req controlplane.Request
			if err := json.Unmarshal(line, &req); err != nil {
				s.t.Errorf("script server got malformed frame %q: %v", line, err)
				return
			}
			select {
			case resp := <-s.script:
				if resp == nil {
					return // scripted transport failure: hang up
				}
				if err := enc.Encode(resp); err != nil {
					return
				}
			default:
				s.t.Error("script exhausted; unexpected extra request")
				return
			}
		}
	}()
	return client, nil
}

func newTestClient(srv *scriptServer, tweak func(*Options)) (*Client, *[]time.Duration) {
	var slept []time.Duration
	opt := Options{
		Addr:           "script",
		AttemptTimeout: 2 * time.Second,
		Dial:           srv.dial,
		Sleep:          func(d time.Duration) { slept = append(slept, d) },
		Retry:          RetryOptions{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, Seed: 5},
	}
	if tweak != nil {
		tweak(&opt)
	}
	return New(opt), &slept
}

func TestClientRetriesBusyThenSucceeds(t *testing.T) {
	srv := newScriptServer(t,
		&controlplane.Response{OK: false, Code: controlplane.CodeServerBusy, RetryAfterS: 0.5},
		&controlplane.Response{OK: true, SimTime: 1},
	)
	c, slept := newTestClient(srv, nil)
	defer c.Close()
	resp, err := c.Status()
	if err != nil || !resp.OK {
		t.Fatalf("Do = %+v, %v", resp, err)
	}
	st := c.Stats()
	if st.Attempts != 2 || st.Retries != 1 || st.BusyResponses != 1 {
		t.Errorf("stats = %+v, want 2 attempts / 1 retry / 1 busy", st)
	}
	// The 0.5s server hint floors the 10ms base backoff (±20% jitter).
	if len(*slept) != 1 || (*slept)[0] < 400*time.Millisecond {
		t.Errorf("slept %v; want one wait honouring the 0.5s hint", *slept)
	}
}

func TestClientRedialsAfterTransportFailure(t *testing.T) {
	srv := newScriptServer(t,
		nil, // first exchange: server hangs up without answering
		&controlplane.Response{OK: true},
	)
	c, _ := newTestClient(srv, nil)
	defer c.Close()
	resp, err := c.Status()
	if err != nil || !resp.OK {
		t.Fatalf("Do = %+v, %v", resp, err)
	}
	st := c.Stats()
	if st.TransportErrors != 1 || st.Redials != 2 {
		t.Errorf("stats = %+v, want 1 transport error and 2 dials", st)
	}
}

func TestClientBudgetExhaustionFailsFast(t *testing.T) {
	busy := &controlplane.Response{OK: false, Code: controlplane.CodeServerBusy}
	srv := newScriptServer(t, busy, busy, busy, busy)
	c, _ := newTestClient(srv, func(o *Options) {
		o.Budget = NewBudget(1, 0.001)
	})
	defer c.Close()
	resp, err := c.Status()
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %+v, %v", resp, err)
	}
	st := c.Stats()
	// First attempt free, one budgeted retry, then the breaker opens —
	// well short of the 4-attempt policy cap.
	if st.Attempts != 2 || st.BudgetDenied != 1 {
		t.Errorf("stats = %+v, want 2 attempts / 1 budget denial", st)
	}
}

func TestClientDeadlineStopsBackoff(t *testing.T) {
	busy := &controlplane.Response{OK: false, Code: controlplane.CodeServerBusy, RetryAfterS: 30}
	srv := newScriptServer(t, busy, busy, busy, busy)
	c, slept := newTestClient(srv, nil)
	defer c.Close()
	start := time.Now()
	resp, err := c.DoDeadline(controlplane.Request{Op: controlplane.OpStatus}, start.Add(time.Second))
	if err == nil {
		t.Fatalf("want deadline error, got %+v", resp)
	}
	if len(*slept) != 0 {
		t.Errorf("client slept %v into a deadline it could never make", *slept)
	}
	if resp.Code != controlplane.CodeServerBusy {
		t.Errorf("last response should surface the shed: %+v", resp)
	}
	if st := c.Stats(); st.DeadlineDenied != 1 {
		t.Errorf("stats = %+v, want 1 deadline denial", st)
	}
}

func TestClientTerminalErrorNotRetried(t *testing.T) {
	srv := newScriptServer(t,
		&controlplane.Response{OK: false, Code: controlplane.CodeUnknownCart, Error: "no such cart"},
	)
	c, slept := newTestClient(srv, nil)
	defer c.Close()
	resp, err := c.Open(99)
	if err != nil {
		t.Fatalf("terminal server error is not a client error: %v", err)
	}
	if resp.OK || resp.Code != controlplane.CodeUnknownCart {
		t.Fatalf("resp = %+v", resp)
	}
	if st := c.Stats(); st.Attempts != 1 || len(*slept) != 0 {
		t.Errorf("terminal error retried: %+v slept=%v", st, *slept)
	}
}

func TestClientSuccessEarnsBudget(t *testing.T) {
	ok := &controlplane.Response{OK: true}
	srv := newScriptServer(t, ok, ok, ok)
	budget := NewBudget(10, 0.1)
	for i := 0; i < 3; i++ {
		budget.Withdraw()
	}
	c, _ := newTestClient(srv, func(o *Options) { o.Budget = budget })
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Status(); err != nil {
			t.Fatal(err)
		}
	}
	want := 7 + 3*0.1
	if got := budget.Tokens(); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("budget after successes = %v, want %v", got, want)
	}
}

// TestClientAgainstRealServer runs the full loop against a live TCP
// control-plane server: API cycle, busy handling under a saturated
// simulation, and re-dial after the server severs the connection.
func TestClientAgainstRealServer(t *testing.T) {
	sys, err := dhlsys.New(dhlsys.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := controlplane.NewServer(sys)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := New(Options{Addr: addr, Retry: RetryOptions{Seed: 11}})
	defer c.Close()
	if resp, err := c.Open(0); err != nil || !resp.OK {
		t.Fatalf("open = %+v, %v", resp, err)
	}
	if resp, err := c.Write(0, 1<<20); err != nil || !resp.OK {
		t.Fatalf("write = %+v, %v", resp, err)
	}
	if resp, err := c.Read(0, 1<<20); err != nil || !resp.OK {
		t.Fatalf("read = %+v, %v", resp, err)
	}
	if resp, err := c.CloseCart(0); err != nil || !resp.OK {
		t.Fatalf("close = %+v, %v", resp, err)
	}
	if resp, err := c.Status(); err != nil || !resp.OK || resp.Stats == nil {
		t.Fatalf("status = %+v, %v", resp, err)
	}
	if resp, err := c.Open(-1); err != nil || resp.OK ||
		resp.Code != controlplane.CodeUnknownCart {
		t.Fatalf("bad open = %+v, %v", resp, err)
	}
}

// TestCodecErrorsKeepTheirWrapping: a request the wire format cannot
// carry fails as an encode error before anything is sent, and a reply
// line that is not JSON fails as a decode error and drops the connection.
func TestCodecErrorsKeepTheirWrapping(t *testing.T) {
	c, _ := newTestClient(newScriptServer(t), func(o *Options) { o.Retry.MaxAttempts = 1 })
	defer c.Close()
	if _, err := c.Read(0, math.NaN()); err == nil || !strings.HasPrefix(err.Error(), "cpclient: encode: ") {
		t.Errorf("NaN read: err = %v, want a cpclient: encode error", err)
	}

	dials := 0
	g := New(Options{
		Addr: "garbage",
		Dial: func(string, time.Duration) (net.Conn, error) {
			dials++
			client, server := net.Pipe()
			go func() {
				defer server.Close()
				if _, err := bufio.NewReader(server).ReadBytes('\n'); err == nil {
					server.Write([]byte("not json\n"))
				}
			}()
			return client, nil
		},
		Retry: RetryOptions{MaxAttempts: 1},
	})
	defer g.Close()
	for i := 0; i < 2; i++ {
		if _, err := g.Status(); err == nil || !strings.HasPrefix(err.Error(), "cpclient: decode: ") {
			t.Errorf("garbage reply: err = %v, want a cpclient: decode error", err)
		}
	}
	if dials != 2 {
		t.Errorf("%d dials for 2 garbage replies; a decode error must drop the connection", dials)
	}
}
