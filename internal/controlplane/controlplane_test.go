package controlplane

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dhlsys"
	"repro/internal/storage"
	"repro/internal/units"
)

func startServer(t *testing.T, opt dhlsys.Options) (*Server, string) {
	t.Helper()
	sys, err := dhlsys.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(sys)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func TestRequestValidation(t *testing.T) {
	cases := []struct {
		req Request
		ok  bool
	}{
		{Request{Op: OpOpen}, true},
		{Request{Op: OpClose, Cart: 1}, true},
		{Request{Op: OpStatus}, true},
		{Request{Op: OpRead, Bytes: 1e9}, true},
		{Request{Op: OpRead}, false},
		{Request{Op: OpWrite, Bytes: -1}, false},
		{Request{Op: "teleport"}, false},
	}
	for _, c := range cases {
		if err := c.req.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.req, err, c.ok)
		}
	}
}

func TestNewServerNilSystem(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Error("nil system must be rejected")
	}
}

func TestFullAPICycleOverTCP(t *testing.T) {
	_, addr := startServer(t, dhlsys.DefaultOptions())
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	open, err := c.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	if !open.OK {
		t.Fatalf("open failed: %s", open.Error)
	}
	// One launch: 8.6 simulated seconds.
	if math.Abs(open.OpSeconds-8.6) > 1e-9 {
		t.Errorf("open took %v sim-s, want 8.6", open.OpSeconds)
	}

	wr, err := c.Write(0, 256*units.TB)
	if err != nil {
		t.Fatal(err)
	}
	if !wr.OK {
		t.Fatalf("write failed: %s", wr.Error)
	}
	rd, err := c.Read(0, 256*units.TB)
	if err != nil {
		t.Fatal(err)
	}
	if !rd.OK {
		t.Fatalf("read failed: %s", rd.Error)
	}
	if rd.OpSeconds <= 0 {
		t.Error("read must take simulated time")
	}

	cl, err := c.CloseCart(0)
	if err != nil {
		t.Fatal(err)
	}
	if !cl.OK {
		t.Fatalf("close failed: %s", cl.Error)
	}

	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.OK || st.Stats == nil {
		t.Fatal("status must include stats")
	}
	if st.Stats.Launches != 2 {
		t.Errorf("launches = %d, want 2", st.Stats.Launches)
	}
	if st.Stats.BytesRead != 256e12 || st.Stats.BytesWritten != 256e12 {
		t.Errorf("io counters: %+v", st.Stats)
	}
	if st.SimTime <= 0 {
		t.Error("sim time must advance")
	}
}

func TestAPIErrorsPropagate(t *testing.T) {
	_, addr := startServer(t, dhlsys.DefaultOptions())
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Unknown cart.
	resp, err := c.Open(99)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "unknown cart") {
		t.Errorf("resp = %+v", resp)
	}
	// Read while at library.
	resp, err = c.Read(0, units.GB)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "not docked") {
		t.Errorf("resp = %+v", resp)
	}
	// Malformed op.
	resp, err = c.Do(Request{Op: "warp"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "unknown op") {
		t.Errorf("resp = %+v", resp)
	}
}

// TestErrorReportedDuringRunReachesReply: an op whose error the
// simulation reports only when the op completes (a launch over its
// timeout) is answered with that error, not as a success.
func TestErrorReportedDuringRunReachesReply(t *testing.T) {
	opt := dhlsys.DefaultOptions()
	opt.Recovery.LaunchTimeout = 1 // a launch takes 8.6 s
	_, addr := startServer(t, opt)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != CodeLaunchTimeout || math.Abs(resp.OpSeconds-8.6) > 1e-9 {
		t.Errorf("open over its timeout = %+v, want a launch-timeout after 8.6 s", resp)
	}
}

func TestConcurrentClients(t *testing.T) {
	opt := dhlsys.DefaultOptions()
	opt.NumCarts = 4
	opt.DockStations = 4
	_, addr := startServer(t, opt)

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(cart int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if r, err := c.Open(cart); err != nil || !r.OK {
				errs <- err
				return
			}
			if r, err := c.CloseCart(cart); err != nil || !r.OK {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// All four carts went out and back.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats.Launches != 8 {
		t.Errorf("launches = %d, want 8", st.Stats.Launches)
	}
}

func TestMultipleRequestsPerConnection(t *testing.T) {
	_, addr := startServer(t, dhlsys.DefaultOptions())
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if _, err := c.Status(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

func TestErrorCodesStructured(t *testing.T) {
	_, addr := startServer(t, dhlsys.DefaultOptions())
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Open(99)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeUnknownCart {
		t.Errorf("open(99) code = %q, want %q", resp.Code, CodeUnknownCart)
	}
	resp, err = c.Read(0, units.GB)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeNotDocked {
		t.Errorf("read-at-library code = %q, want %q", resp.Code, CodeNotDocked)
	}
	resp, err = c.Do(Request{Op: "warp"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeBadRequest {
		t.Errorf("bad op code = %q, want %q", resp.Code, CodeBadRequest)
	}
	// Successful ops carry no code.
	resp, err = c.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Code != "" {
		t.Errorf("ok response should have empty code, got %+v", resp)
	}
}

func TestCodeForErrorTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{dhlsys.ErrCartFailed, CodeCartFailed},
		{dhlsys.ErrDegradedRead, CodeDegradedRead},
		{dhlsys.ErrLaunchTimeout, CodeLaunchTimeout},
		{storage.ErrOutOfRange, CodeStorage},
		{fmt.Errorf("wrapped: %w", dhlsys.ErrCartBusy), CodeCartBusy},
		{errors.New("mystery"), CodeError},
	}
	for _, c := range cases {
		if got := CodeForError(c.err); got != c.want {
			t.Errorf("CodeForError(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestReadDeadlineDropsIdleConnection(t *testing.T) {
	sys, err := dhlsys.New(dhlsys.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultServerOptions()
	opt.ReadTimeout = 50 * time.Millisecond
	srv, err := NewServerWithOptions(sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Status(); err != nil {
		t.Fatalf("first request should succeed: %v", err)
	}
	// Sit idle past the read deadline; the server must drop us.
	time.Sleep(150 * time.Millisecond)
	if _, err := c.Status(); err == nil {
		t.Error("idle connection should have been dropped by the read deadline")
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	sys, err := dhlsys.New(dhlsys.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultServerOptions()
	opt.DrainTimeout = 200 * time.Millisecond
	srv, err := NewServerWithOptions(sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A connected-but-idle client must not wedge Close: the drain window
	// expires and the connection is severed.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Status(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not drain within the timeout")
	}
	// New connections are refused after shutdown.
	if c2, err := Dial(addr); err == nil {
		if _, err := c2.Status(); err == nil {
			t.Error("request after shutdown should fail")
		}
		c2.Close()
	}
}

func TestStatusCarriesAvailability(t *testing.T) {
	_, addr := startServer(t, dhlsys.DefaultOptions())
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if r, err := c.Open(0); err != nil || !r.OK {
		t.Fatalf("open: %v %+v", err, r)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats == nil {
		t.Fatal("status must include stats")
	}
	if st.Stats.Availability != 1 {
		t.Errorf("availability = %v, want 1 with no faults", st.Stats.Availability)
	}
	if st.Stats.FaultsInjected != 0 || st.Stats.DowntimeS != 0 {
		t.Errorf("fault counters should be zero: %+v", st.Stats)
	}
}
