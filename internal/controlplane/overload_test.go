package controlplane

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/dhlsys"
	"repro/internal/telemetry"
)

// vclock is a hand-cranked clock for deterministic admission tests.
type vclock struct {
	mu  sync.Mutex
	now time.Time
}

func newVclock() *vclock { return &vclock{now: time.Unix(0, 0)} }

func (v *vclock) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

func (v *vclock) Advance(d time.Duration) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.now = v.now.Add(d)
}

func newOverloadServer(t *testing.T, opt ServerOptions) *Server {
	t.Helper()
	sys, err := dhlsys.New(dhlsys.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServerWithOptions(sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestOverloadShedsWithRetryAfter drives the handler directly: with the
// simulation held and the waiting room full, further requests are shed
// with CodeServerBusy plus a positive retry hint — launches first
// (brownout), then everything (queue full) — while status reads keep
// answering from the cached snapshot.
func TestOverloadShedsWithRetryAfter(t *testing.T) {
	opt := DefaultServerOptions()
	opt.RequestTimeout = 300 * time.Millisecond
	opt.Admission = &admit.Options{MaxInFlight: 1, MaxQueue: 2, BrownoutFrac: 0.5}
	srv := newOverloadServer(t, opt)

	// Prime the snapshot cache, then saturate the simulation.
	if resp := srv.handle(1, Request{Op: OpStatus}); !resp.OK || resp.Stale {
		t.Fatalf("priming status = %+v", resp)
	}
	srv.sem <- struct{}{} // hold the simulation like a long-running op

	// Two handlers occupy the executor slot and the first queue slot.
	var wg sync.WaitGroup
	results := make([]Response, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = srv.handle(int64(10+i), Request{Op: OpWrite, Cart: 0, Bytes: 1e9})
		}(i)
	}
	waitFor(t, func() bool {
		s := srv.adm.Snapshot()
		return s.InFlight+s.QueueDepth == 2
	})

	// Queue is at the brownout threshold: launches shed first.
	if resp := srv.handle(20, Request{Op: OpOpen, Cart: 0}); resp.Code != CodeServerBusy {
		t.Errorf("launch during brownout = %+v", resp)
	} else {
		if !strings.Contains(resp.Error, "brownout") {
			t.Errorf("want brownout reason, got %q", resp.Error)
		}
		if resp.RetryAfterS <= 0 {
			t.Errorf("shed response needs retry_after_s, got %v", resp.RetryAfterS)
		}
	}
	// IO still queues (slot 2 of 2)...
	wg.Add(1)
	var third Response
	go func() {
		defer wg.Done()
		third = srv.handle(21, Request{Op: OpRead, Cart: 0, Bytes: 1e9})
	}()
	waitFor(t, func() bool { return srv.adm.Snapshot().QueueDepth == 2 })
	// ...and the next IO request finds the room full.
	if resp := srv.handle(22, Request{Op: OpWrite, Cart: 0, Bytes: 1e9}); resp.Code != CodeServerBusy {
		t.Errorf("IO past queue cap = %+v", resp)
	} else if !strings.Contains(resp.Error, "queue-full") {
		t.Errorf("want queue-full reason, got %q", resp.Error)
	}

	// Status and metrics stay answerable from the cached snapshot.
	if resp := srv.handle(30, Request{Op: OpStatus}); !resp.OK || !resp.Stale {
		t.Errorf("status during saturation = %+v", resp)
	} else if resp.Stats == nil {
		t.Error("stale status must still carry stats")
	}

	// The parked handlers give up after RequestTimeout with busy + hint.
	wg.Wait()
	for i, r := range results {
		if r.Code != CodeServerBusy || r.RetryAfterS <= 0 {
			t.Errorf("parked handler %d = %+v", i, r)
		}
	}
	if third.Code != CodeServerBusy {
		t.Errorf("queued third handler = %+v", third)
	}
	<-srv.sem // release

	// Recovery: with the simulation free again, requests flow.
	if resp := srv.handle(40, Request{Op: OpOpen, Cart: 0}); !resp.OK {
		t.Errorf("post-overload open = %+v", resp)
	}
	st := srv.Admission()
	io := st.Classes[int(admit.ClassIO)]
	launch := st.Classes[int(admit.ClassLaunch)]
	if io.QueueFull == 0 || launch.Brownout == 0 {
		t.Errorf("admission ledger missing sheds: io=%+v launch=%+v", io, launch)
	}
	if io.Abandoned != 3 {
		t.Errorf("abandoned = %d, want 3 (two executor waiters + one queued)", io.Abandoned)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never reached")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRateLimitDeterministicOnVirtualClock pins the token bucket to an
// injected clock: same arrival times, same decisions, and the
// retry-after hint prices the token shortfall.
func TestRateLimitDeterministicOnVirtualClock(t *testing.T) {
	run := func() []string {
		clk := newVclock()
		opt := DefaultServerOptions()
		opt.Clock = clk.Now
		opt.Admission = &admit.Options{MaxInFlight: 4, MaxQueue: 4, Rate: 1, Burst: 1}
		srv := newOverloadServer(t, opt)
		var codes []string
		for i := 0; i < 6; i++ {
			resp := srv.handle(1, Request{Op: OpWrite, Cart: 0, Bytes: 1e9})
			codes = append(codes, resp.Code)
			clk.Advance(400 * time.Millisecond)
		}
		return codes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic admission at %d: %v vs %v", i, a, b)
		}
	}
	// Burst 1 at t=0, then one token every second against 2.5 req/s
	// offered: the bucket must shed some and admit some.
	var shed, admitted int
	for _, c := range a {
		if c == CodeServerBusy {
			shed++
		} else {
			admitted++
		}
	}
	if shed == 0 || admitted < 2 {
		t.Errorf("want a mix of sheds and admits, got %v", a)
	}
}

// TestControlBypassesRateLimit: an empty token bucket must not take
// status/metrics down with it.
func TestControlBypassesRateLimit(t *testing.T) {
	opt := DefaultServerOptions()
	opt.Admission = &admit.Options{MaxInFlight: 4, MaxQueue: 4, Rate: 0.001, Burst: 1}
	srv := newOverloadServer(t, opt)
	if resp := srv.handle(1, Request{Op: OpWrite, Cart: 0, Bytes: 1e9}); resp.Code == CodeServerBusy {
		t.Fatalf("first write should consume the only token, got %+v", resp)
	}
	if resp := srv.handle(1, Request{Op: OpWrite, Cart: 0, Bytes: 1e9}); resp.Code != CodeServerBusy {
		t.Fatalf("second write should be rate-limited, got %+v", resp)
	}
	if resp := srv.handle(1, Request{Op: OpStatus}); !resp.OK {
		t.Errorf("status must bypass the bucket: %+v", resp)
	}
	if resp := srv.handle(1, Request{Op: OpMetrics}); resp.Code == CodeServerBusy {
		t.Errorf("metrics must bypass the bucket: %+v", resp)
	}
}

// TestStaleMetricsServedDuringSaturation: the metrics op degrades to the
// cached Prometheus exposition instead of queueing behind the sim.
func TestStaleMetricsServedDuringSaturation(t *testing.T) {
	sysOpt := dhlsys.DefaultOptions()
	sysOpt.Telemetry = telemetry.NewSet()
	sys, err := dhlsys.New(sysOpt)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultServerOptions()
	opt.RequestTimeout = 100 * time.Millisecond
	srv, err := NewServerWithOptions(sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if resp := srv.handle(1, Request{Op: OpMetrics}); !resp.OK || resp.Stale {
		t.Fatalf("fresh metrics = %+v", resp)
	}
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()
	resp := srv.handle(1, Request{Op: OpMetrics})
	if !resp.OK || !resp.Stale || resp.Text == "" {
		t.Errorf("saturated metrics = %+v", resp)
	}
	if resp := srv.handle(1, Request{Op: OpStatus}); !resp.OK || !resp.Stale {
		t.Errorf("saturated status = %+v", resp)
	}
}

// TestColdCacheFallsBackToWaiting: before any snapshot exists, a control
// read during saturation waits (bounded) rather than fabricating data.
func TestColdCacheFallsBackToWaiting(t *testing.T) {
	opt := DefaultServerOptions()
	opt.RequestTimeout = 80 * time.Millisecond
	srv := newOverloadServer(t, opt)
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()
	resp := srv.handle(1, Request{Op: OpStatus})
	if resp.OK || resp.Code != CodeServerBusy {
		t.Errorf("cold-cache saturated status = %+v", resp)
	}
}

// TestStaleStatusSurvivesRefresh: a stale status reply is a deep copy of
// the cache, so the in-place refresh after the next simulation op leaves
// a reply already handed out unchanged.
func TestStaleStatusSurvivesRefresh(t *testing.T) {
	sysOpt := dhlsys.DefaultOptions()
	sysOpt.Telemetry = telemetry.NewSet()
	sys, err := dhlsys.New(sysOpt)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServerWithOptions(sys, DefaultServerOptions())
	if err != nil {
		t.Fatal(err)
	}
	if resp := srv.handle(1, Request{Op: OpOpen}); !resp.OK {
		t.Fatalf("open = %+v", resp)
	}
	srv.sem <- struct{}{}
	stale := srv.handle(1, Request{Op: OpStatus})
	<-srv.sem
	if !stale.OK || !stale.Stale || stale.Metrics == nil {
		t.Fatalf("saturated status = %+v", stale)
	}
	before, err := json.Marshal(stale)
	if err != nil {
		t.Fatal(err)
	}
	if resp := srv.handle(1, Request{Op: OpClose}); !resp.OK {
		t.Fatalf("close = %+v", resp)
	}
	after, err := json.Marshal(stale)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("refresh rewrote a stale reply already handed out:\n before %s\n after  %s", before, after)
	}
	srv.cacheMu.Lock()
	launches := srv.cacheStats.Launches
	srv.cacheMu.Unlock()
	if launches != stale.Stats.Launches+1 {
		t.Errorf("cache shows %d launches after the close, stale reply %d; want one more", launches, stale.Stats.Launches)
	}
}
