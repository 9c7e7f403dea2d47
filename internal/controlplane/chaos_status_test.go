package controlplane

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dhlsys"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// TestStatusDuringActiveChaos exercises the introspection ops while a
// scripted fault outage is still open: the status response must carry the
// fault counters and the telemetry snapshot, the metrics op must render the
// exposition, and server shutdown must stay bounded by the drain timeout.
func TestStatusDuringActiveChaos(t *testing.T) {
	opt := dhlsys.DefaultOptions()
	opt.Telemetry = telemetry.NewSet()
	// A leak that opens at t=1 s and outlives the whole test: every
	// status query lands inside the outage window.
	opt.Faults = &faults.Script{Faults: []faults.Fault{
		{At: 1, Kind: faults.VacuumLeak, Pressure: 40_000, Duration: 100_000},
	}}
	sys, err := dhlsys.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	sopt := DefaultServerOptions()
	sopt.DrainTimeout = 200 * time.Millisecond
	srv, err := NewServerWithOptions(sys, sopt)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Drive the simulation past t=1 so the fault injects; the launch flies
	// degraded under the leak.
	open, err := c.Do(Request{Op: OpOpen, Cart: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !open.OK {
		t.Fatalf("open failed: %s", open.Error)
	}

	st, err := c.Do(Request{Op: OpStatus})
	if err != nil {
		t.Fatal(err)
	}
	if !st.OK || st.Stats == nil {
		t.Fatalf("status failed: %+v", st)
	}
	if st.Stats.FaultsInjected != 1 {
		t.Errorf("faults_injected = %d, want 1", st.Stats.FaultsInjected)
	}
	if st.Stats.DowntimeS <= 0 {
		t.Errorf("downtime = %v, want > 0 (outage still open)", st.Stats.DowntimeS)
	}
	if st.Stats.Availability >= 1 {
		t.Errorf("availability = %v, want < 1 mid-outage", st.Stats.Availability)
	}
	if st.Stats.DegradedLaunches == 0 {
		t.Error("launch under an open leak must be degraded")
	}
	if st.Metrics == nil {
		t.Fatal("status must include the metrics snapshot when telemetry is on")
	}
	var injected, degraded float64
	for _, cp := range st.Metrics.Counters {
		switch cp.Name {
		case "dhl_faults_injected_total":
			injected = cp.Value
		case "dhl_degraded_launches_total":
			degraded = cp.Value
		}
	}
	if injected != 1 || degraded == 0 {
		t.Errorf("metrics counters: injected=%v degraded=%v", injected, degraded)
	}

	m, err := c.Do(Request{Op: OpMetrics})
	if err != nil {
		t.Fatal(err)
	}
	if !m.OK {
		t.Fatalf("metrics op failed: %+v", m)
	}
	if !strings.Contains(m.Text, "dhl_faults_injected_total 1") {
		t.Errorf("exposition missing fault counter:\n%s", m.Text)
	}
	if !strings.Contains(m.Text, "# TYPE dhl_launch_seconds histogram") {
		t.Errorf("exposition missing histogram type line:\n%s", m.Text)
	}

	// Shutdown with the connection still open must stay bounded: the drain
	// severs idle connections after DrainTimeout, not hang on the
	// 100 000 s simulated outage.
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("drain took %v, want bounded by the %v drain timeout", elapsed, sopt.DrainTimeout)
	}
}

// TestMetricsOpWithoutTelemetry verifies the structured no-telemetry error.
func TestMetricsOpWithoutTelemetry(t *testing.T) {
	_, addr := startServer(t, dhlsys.DefaultOptions())
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m, err := c.Do(Request{Op: OpMetrics})
	if err != nil {
		t.Fatal(err)
	}
	if m.OK || m.Code != CodeNoTelemetry {
		t.Errorf("metrics without telemetry: %+v, want code %q", m, CodeNoTelemetry)
	}
	// Status still works, just without the snapshot.
	st, err := c.Do(Request{Op: OpStatus})
	if err != nil {
		t.Fatal(err)
	}
	if !st.OK || st.Metrics != nil {
		t.Errorf("status on an uninstrumented system: %+v", st)
	}
}
