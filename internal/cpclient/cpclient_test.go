package cpclient

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/controlplane"
	"repro/internal/dhlsys"
	"repro/internal/telemetry"
)

func TestPolicyDeterministicSequences(t *testing.T) {
	a, b := NewPolicy(42, NewBudget()), NewPolicy(42, NewBudget())
	for i := 1; i <= 8; i++ {
		da, db := a.backoff(i, 0), b.backoff(i, 0)
		if da != db {
			t.Fatalf("retry %d: same seed diverged: %v vs %v", i, da, db)
		}
	}
	same := true
	x, y := NewPolicy(42, NewBudget()), NewPolicy(43, NewBudget())
	for i := 1; i <= 8; i++ {
		if x.backoff(i, 0) != y.backoff(i, 0) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jitter — RNG not wired")
	}
}

// within reports whether d lies in the jitter band around target.
func within(d, target time.Duration) bool {
	return float64(d) >= (1-jitter)*float64(target) && float64(d) <= (1+jitter)*float64(target)
}

func TestPolicyBackoffShape(t *testing.T) {
	p := NewPolicy(7, NewBudget())
	for i, want := range []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, 1600 * time.Millisecond,
		3200 * time.Millisecond, 5 * time.Second, 5 * time.Second, // capped
	} {
		if got := p.backoff(i+1, 0); !within(got, want) {
			t.Errorf("retry %d: backoff = %v, want %v ±20%%", i+1, got, want)
		}
	}
	// The server hint floors the exponential guess.
	if got := p.backoff(1, 3*time.Second); !within(got, 3*time.Second) {
		t.Errorf("hinted backoff = %v, want the 3s hint ±20%%", got)
	}
	// A hint below the exponential delay does not shrink it.
	if got := p.backoff(3, time.Millisecond); !within(got, 200*time.Millisecond) {
		t.Errorf("small hint moved backoff to %v", got)
	}
}

// TestPolicyNextOrder: a success earns budget back; the attempt cap and
// a terminal code stop without spending a token; a retryable failure
// spends one and waits at least the server's hint less the jitter; a dry
// budget denies.
func TestPolicyNextOrder(t *testing.T) {
	b := NewBudget()
	p := NewPolicy(1, b)
	busy := controlplane.Response{Code: controlplane.CodeServerBusy, RetryAfterS: 2}
	if v, _ := p.Next(1, controlplane.Response{OK: true}, nil); v != Stop {
		t.Errorf("success: verdict %v, want Stop", v)
	}
	if v, _ := p.Next(maxAttempts, busy, nil); v != Stop {
		t.Errorf("last attempt: verdict %v, want Stop", v)
	}
	if v, _ := p.Next(1, controlplane.Response{Code: controlplane.CodeNotDocked}, nil); v != Stop {
		t.Errorf("terminal code: verdict %v, want Stop", v)
	}
	if b.tenths != budgetBurst*tenthsPerToken {
		t.Errorf("tenths = %v after stops, want the full %v", b.tenths, budgetBurst*tenthsPerToken)
	}
	v, wait := p.Next(1, busy, nil)
	if v != Retry || !within(wait, 2*time.Second) {
		t.Errorf("busy with a 2s hint: %v after %v, want Retry after 2s ±20%%", v, wait)
	}
	if v, _ := p.Next(1, controlplane.Response{}, errors.New("conn reset")); v != Retry {
		t.Errorf("transport error: verdict %v, want Retry", v)
	}
	for b.Withdraw() {
	}
	if v, _ := p.Next(1, busy, nil); v != Denied {
		t.Errorf("dry budget: verdict %v, want Denied", v)
	}
}

func TestBudgetBreaker(t *testing.T) {
	b := NewBudget()
	for i := 0; i < budgetBurst; i++ {
		if !b.Withdraw() {
			t.Fatalf("the burst of %d should allow retry %d", budgetBurst, i+1)
		}
	}
	if b.Withdraw() {
		t.Fatal("a retry past the burst should be denied")
	}
	for i := 0; i < 9; i++ {
		b.Success() // 0.9 tokens: still under the 1-token price
	}
	if b.Withdraw() {
		t.Fatal("nine tenths of a token must not buy a retry")
	}
	b.Success()
	b.Success() // 1.1
	if !b.Withdraw() {
		t.Fatal("earned tokens should re-enable retries")
	}
	for i := 0; i < 200; i++ {
		b.Success()
	}
	if got := b.tenths; got != budgetBurst*tenthsPerToken {
		t.Errorf("tenths cap at burst: got %v, want %v", got, budgetBurst*tenthsPerToken)
	}
}

// TestBudgetTenSuccessesBuyOneRetry: a drained budget buys exactly one
// retry with ten successes, the documented rate, where adding 0.1 ten
// times to a float reaches only 0.9999999999999999.
func TestBudgetTenSuccessesBuyOneRetry(t *testing.T) {
	b := NewBudget()
	for b.Withdraw() {
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			b.Success()
		}
		if !b.Withdraw() {
			t.Fatalf("round %d: ten successes did not buy a retry", round)
		}
		if b.Withdraw() {
			t.Fatalf("round %d: ten successes bought more than one retry", round)
		}
	}
}

func TestRetryableClassification(t *testing.T) {
	transient := []string{
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
	for _, code := range transient {
		if !retryable(controlplane.Response{OK: false, Code: code}, nil) {
			t.Errorf("code %q should be retryable", code)
		}
	}
	for _, code := range terminal {
		if retryable(controlplane.Response{OK: false, Code: code}, nil) {
			t.Errorf("code %q should be terminal", code)
		}
	}
	if retryable(controlplane.Response{OK: true}, nil) {
		t.Error("success is not retryable")
	}
	if !retryable(controlplane.Response{}, errors.New("conn reset")) {
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

// newTestClient builds a client on srv that records its backoffs instead
// of sleeping. A nil budget gives it a private one.
func newTestClient(srv *scriptServer, budget *Budget) (*Client, *[]time.Duration) {
	var slept []time.Duration
	c := New(Options{Addr: "script", Budget: budget, Seed: 5})
	c.dial = srv.dial
	c.sleep = func(d time.Duration) { slept = append(slept, d) }
	return c, &slept
}

func TestClientRetriesBusyThenSucceeds(t *testing.T) {
	srv := newScriptServer(t,
		&controlplane.Response{OK: false, Code: controlplane.CodeServerBusy, RetryAfterS: 0.5},
		&controlplane.Response{OK: true, SimTime: 1},
	)
	c, slept := newTestClient(srv, nil)
	defer c.Close()
	resp, err := c.Do(controlplane.Request{Op: controlplane.OpStatus}, time.Time{})
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
	resp, err := c.Do(controlplane.Request{Op: controlplane.OpStatus}, time.Time{})
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
	budget := NewBudget()
	for i := 1; i < budgetBurst; i++ {
		budget.Withdraw() // leave one token
	}
	c, _ := newTestClient(srv, budget)
	defer c.Close()
	resp, err := c.Do(controlplane.Request{Op: controlplane.OpStatus}, time.Time{})
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
	resp, err := c.Do(controlplane.Request{Op: controlplane.OpStatus}, start.Add(time.Second))
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

// TestClientDeadlineDenialKeepsBudget: a busy reply whose retry-after
// hint outlives the deadline is refused a retry, and the token the policy
// took for that retry goes back to the budget.
func TestClientDeadlineDenialKeepsBudget(t *testing.T) {
	busy := &controlplane.Response{OK: false, Code: controlplane.CodeServerBusy, RetryAfterS: 30}
	srv := newScriptServer(t, busy)
	budget := NewBudget()
	c, slept := newTestClient(srv, budget)
	defer c.Close()
	if _, err := c.Do(controlplane.Request{Op: controlplane.OpStatus}, time.Now().Add(time.Second)); err == nil {
		t.Fatal("a shed request past its deadline succeeded")
	}
	if st := c.Stats(); st.Attempts != 1 || st.DeadlineDenied != 1 || st.Retries != 0 || len(*slept) != 0 {
		t.Errorf("stats = %+v, slept %v; want 1 attempt, 1 deadline denial and no retry", st, *slept)
	}
	if want := budgetBurst * tenthsPerToken; budget.tenths != want {
		t.Errorf("budget holds %d tenths after a refused retry, want the full %d", budget.tenths, want)
	}
}

// TestClientDeadlineCutIsNoFault: an attempt that the caller's own
// deadline ends, against a peer that reads the request and never replies,
// or that the deadline overtakes before its dial, is counted as an
// attempt and nothing else: no transport error, no deadline denial, no
// retry, and no budget token withdrawn for a retry that cannot happen.
func TestClientDeadlineCutIsNoFault(t *testing.T) {
	budget := NewBudget()
	c := New(Options{Addr: "silent", Budget: budget})
	dials := 0
	c.dial = func(string, time.Duration) (net.Conn, error) {
		dials++
		client, server := net.Pipe()
		t.Cleanup(func() { server.Close() })
		go io.Copy(io.Discard, server)
		return client, nil
	}
	c.sleep = func(d time.Duration) { t.Errorf("slept %v after the deadline", d) }
	defer c.Close()
	want := budget.tenths
	check := func(label string, attempts uint64) {
		t.Helper()
		st := c.Stats()
		if st.Attempts != attempts || st.TransportErrors != 0 || st.DeadlineDenied != 0 || st.Retries != 0 {
			t.Errorf("%s: stats = %+v; want %d attempt(s) and no transport error, deadline denial or retry",
				label, st, attempts)
		}
		if budget.tenths != want {
			t.Errorf("%s: budget holds %d tenths, want %d untouched", label, budget.tenths, want)
		}
	}

	if _, err := c.Do(controlplane.Request{Op: controlplane.OpStatus}, time.Now().Add(50*time.Millisecond)); err == nil {
		t.Fatal("a peer that never replies answered")
	}
	check("silent peer", 1)

	if _, err := c.Do(controlplane.Request{Op: controlplane.OpStatus}, time.Now().Add(-time.Second)); err == nil {
		t.Fatal("a request past its deadline succeeded")
	}
	check("deadline before dial", 2)
	if dials != 1 {
		t.Errorf("%d dials; the request past its deadline must not dial", dials)
	}
}

func TestClientTerminalErrorNotRetried(t *testing.T) {
	srv := newScriptServer(t,
		&controlplane.Response{OK: false, Code: controlplane.CodeUnknownCart, Error: "no such cart"},
	)
	c, slept := newTestClient(srv, nil)
	defer c.Close()
	resp, err := c.Do(controlplane.Request{Op: controlplane.OpOpen, Cart: 99}, time.Time{})
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
	budget := NewBudget()
	for i := 0; i < 3; i++ {
		budget.Withdraw()
	}
	c, _ := newTestClient(srv, budget)
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Do(controlplane.Request{Op: controlplane.OpStatus}, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	want := (budgetBurst-3)*tenthsPerToken + 3
	if got := budget.tenths; got != want {
		t.Errorf("budget after successes = %v tenths, want %v", got, want)
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
	srv, err := controlplane.NewServerWithOptions(sys, controlplane.DefaultServerOptions())
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := New(Options{Addr: addr, Seed: 11})
	defer c.Close()
	if resp, err := c.Do(controlplane.Request{Op: controlplane.OpOpen}, time.Time{}); err != nil || !resp.OK {
		t.Fatalf("open = %+v, %v", resp, err)
	}
	if resp, err := c.Do(controlplane.Request{Op: controlplane.OpWrite, Bytes: 1 << 20}, time.Time{}); err != nil || !resp.OK {
		t.Fatalf("write = %+v, %v", resp, err)
	}
	if resp, err := c.Do(controlplane.Request{Op: controlplane.OpRead, Bytes: 1 << 20}, time.Time{}); err != nil || !resp.OK {
		t.Fatalf("read = %+v, %v", resp, err)
	}
	if resp, err := c.Do(controlplane.Request{Op: controlplane.OpClose}, time.Time{}); err != nil || !resp.OK {
		t.Fatalf("close = %+v, %v", resp, err)
	}
	if resp, err := c.Do(controlplane.Request{Op: controlplane.OpStatus}, time.Time{}); err != nil || !resp.OK || resp.Stats == nil {
		t.Fatalf("status = %+v, %v", resp, err)
	}
	if resp, err := c.Do(controlplane.Request{Op: controlplane.OpOpen, Cart: -1}, time.Time{}); err != nil || resp.OK ||
		resp.Code != controlplane.CodeUnknownCart {
		t.Fatalf("bad open = %+v, %v", resp, err)
	}
}

// TestCodecErrorsKeepTheirWrapping: a request the wire format cannot
// carry fails Validate before anything is dialled or sent, and a reply
// line that is not JSON fails as a receive error wrapping the decoder's
// *json.SyntaxError and drops the connection, so every attempt dials
// afresh.
func TestCodecErrorsKeepTheirWrapping(t *testing.T) {
	nanDials := 0
	c := New(Options{Addr: "unused"})
	c.dial = func(string, time.Duration) (net.Conn, error) {
		nanDials++
		return nil, errors.New("dialled for a request that cannot be sent")
	}
	defer c.Close()
	nan := controlplane.Request{Op: controlplane.OpRead, Bytes: math.NaN()}
	if _, err := c.Do(nan, time.Time{}); err == nil || err.Error() != nan.Validate().Error() {
		t.Errorf("NaN read: err = %v, want the Validate error", err)
	}
	if st := c.Stats(); nanDials != 0 || st.Attempts != 0 {
		t.Errorf("NaN read: %d dials, %d attempts; want it refused before either", nanDials, st.Attempts)
	}

	dials := 0
	g := New(Options{Addr: "garbage"})
	g.dial = func(string, time.Duration) (net.Conn, error) {
		dials++
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			if _, err := bufio.NewReader(server).ReadBytes('\n'); err == nil {
				server.Write([]byte("not json\n"))
			}
		}()
		return client, nil
	}
	g.sleep = func(time.Duration) {}
	defer g.Close()
	for i := 0; i < 2; i++ {
		_, err := g.Do(controlplane.Request{Op: controlplane.OpStatus}, time.Time{})
		var syntax *json.SyntaxError
		if err == nil || !strings.HasPrefix(err.Error(), "controlplane: recv: ") || !errors.As(err, &syntax) {
			t.Errorf("garbage reply: err = %v, want a controlplane: recv error wrapping a *json.SyntaxError", err)
		}
	}
	if st := g.Stats(); dials != 2*maxAttempts || st.Attempts != uint64(dials) {
		t.Errorf("%d dials for %d attempts at 2 garbage replies; a decode error must drop the connection", dials, st.Attempts)
	}
}

// TestLongRepliesComeBackWhole: status and metrics replies longer than
// bufio's 4 KiB default come back through Do byte for byte as the server
// builds them, compared as encoding/json frames.
func TestLongRepliesComeBackWhole(t *testing.T) {
	opt := dhlsys.DefaultOptions()
	opt.Telemetry = telemetry.NewSet()
	for i := 0; i < 64; i++ {
		opt.Telemetry.Metrics.Counter(fmt.Sprintf("dhl_extra_rack_%02d_bytes_total", i)).Add(float64(i))
	}
	sys, err := dhlsys.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := controlplane.NewServerWithOptions(sys, controlplane.DefaultServerOptions())
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := New(Options{Addr: addr, Seed: 3})
	defer c.Close()
	for _, req := range []controlplane.Request{
		{Op: controlplane.OpOpen}, {Op: controlplane.OpWrite, Bytes: 1e9},
		{Op: controlplane.OpRead, Bytes: 1e9}, {Op: controlplane.OpClose},
	} {
		if resp, err := c.Do(req, time.Time{}); err != nil || !resp.OK {
			t.Fatalf("%+v: %+v, %v", req, resp, err)
		}
	}
	for _, op := range []controlplane.Op{controlplane.OpStatus, controlplane.OpMetrics} {
		got, err := c.Do(controlplane.Request{Op: op}, time.Time{})
		if err != nil || !got.OK {
			t.Fatalf("%s: %+v, %v", op, got, err)
		}
		if !srv.TryAcquire() {
			t.Fatal("the simulation is held with no request in flight")
		}
		want := srv.Execute(controlplane.Request{Op: op})
		srv.Finish(nil)
		gotFrame, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wantFrame, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if len(wantFrame) <= 4096 {
			t.Fatalf("%s reply is %d bytes; the test needs one past bufio's 4096", op, len(wantFrame))
		}
		if !bytes.Equal(gotFrame, wantFrame) {
			t.Errorf("%s reply differs:\n got  %s\n want %s", op, gotFrame, wantFrame)
		}
	}
}
