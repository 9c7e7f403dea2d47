package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/controlplane"
	"repro/internal/cpclient"
	"repro/internal/dhlsys"
)

func runHarness(t *testing.T, cfg Config) *Result {
	t.Helper()
	h, err := newHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// overloadConfig offers roughly 4× the executor's capacity: 48 clients
// with 100ms think against a serial executor whose launch ops take
// seconds each, behind an 8-deep queue.
func overloadConfig() Config {
	return Config{
		Mode: "closed", Clients: 48, Duration: 30, Seed: 9,
		Think: 0.1, StatusEvery: 0.5,
		Admission: admit.Options{MaxInFlight: 1, MaxQueue: 8},
	}
}

// TestClosedLoopDeterministic pins the harness's core contract: two runs
// with the same config produce byte-identical reports and JSON.
func TestClosedLoopDeterministic(t *testing.T) {
	a := runHarness(t, overloadConfig())
	b := runHarness(t, overloadConfig())
	if a.Report() != b.Report() {
		t.Errorf("reports differ:\n--- run 1\n%s--- run 2\n%s", a.Report(), b.Report())
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Error("JSON serialisations differ between identical runs")
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := overloadConfig()
	a := runHarness(t, cfg)
	cfg.Seed = 10
	b := runHarness(t, cfg)
	if a.Report() == b.Report() {
		t.Error("different seeds produced identical reports — seeding not wired")
	}
}

// TestClosedLoopOverloadAcceptance drives ~4× capacity and checks the
// issue's acceptance criteria: explicit sheds with retry hints, control
// reads served stale from the cache, and goodput (executor utilization)
// within 20% of saturation.
func TestClosedLoopOverloadAcceptance(t *testing.T) {
	res := runHarness(t, overloadConfig())
	if res.ShedBusy == 0 {
		t.Error("overload produced no explicit sheds")
	}
	launch := res.Admission.Classes[int(admit.ClassLaunch)]
	if launch.Brownout == 0 {
		t.Error("brownout never shed a launch under 4x overload")
	}
	if res.CtlStale == 0 {
		t.Error("no control probe was served from the snapshot cache")
	}
	if res.CtlProbes != res.CtlFresh+res.CtlStale+res.CtlDropped {
		t.Errorf("control probe accounting leaks: %d != %d+%d+%d",
			res.CtlProbes, res.CtlFresh, res.CtlStale, res.CtlDropped)
	}
	if res.Utilization < 0.8 {
		t.Errorf("utilization %.3f under overload; goodput not within 20%% of saturation",
			res.Utilization)
	}
	if res.OK == 0 {
		t.Error("nothing succeeded at all — shedding everything is not goodput")
	}
	if res.Issued != res.OK+res.Failed+res.ShedBusy+res.Retries-res.QueueTimeout &&
		res.Issued <= 0 {
		t.Errorf("implausible request ledger: %+v", res)
	}
}

// TestOpenLoopOverloadGoodput: at 4× the measured IO capacity the open
// loop must shed the excess while goodput stays at the saturated rate.
func TestOpenLoopOverloadGoodput(t *testing.T) {
	base := Config{
		Mode: "open", Clients: 16, Carts: 4, Duration: 20, Seed: 3,
		Rate: 400, StatusEvery: 0.5,
		Admission: admit.Options{MaxInFlight: 1, MaxQueue: 8},
	}
	res := runHarness(t, base)
	if res.ShedBusy == 0 {
		t.Error("4x offered load produced no sheds")
	}
	if res.Utilization < 0.8 {
		t.Errorf("utilization %.3f; executor starved while shedding", res.Utilization)
	}
	// Goodput must be within 20% of the saturated service rate implied by
	// the busy executor: ok ops per busy second.
	saturated := float64(res.OK) / (res.Utilization * res.Config.Duration)
	if res.GoodputRPS < 0.8*saturated {
		t.Errorf("goodput %.1f/s below 80%% of saturated %.1f/s", res.GoodputRPS, saturated)
	}
	if res.Retries != 0 || res.BudgetDenied != 0 {
		t.Errorf("open loop must not retry: %+v", res)
	}
}

// TestChaosComposition: a fault scenario composes into the load run and
// stays deterministic.
func TestChaosComposition(t *testing.T) {
	cfg := Config{
		Mode: "closed", Clients: 24, Duration: 20, Seed: 5,
		Think: 0.2, StatusEvery: 0.5, Chaos: "rough-day",
		Admission: admit.Options{MaxInFlight: 1, MaxQueue: 8},
	}
	a := runHarness(t, cfg)
	if a.Faults == 0 {
		t.Error("chaos scenario injected no faults")
	}
	b := runHarness(t, cfg)
	if a.Report() != b.Report() {
		t.Error("chaos run not reproducible")
	}
}

func TestUnknownChaosRejected(t *testing.T) {
	if _, err := newHarness(Config{Chaos: "no-such-scenario"}); err == nil {
		t.Error("unknown scenario should fail fast")
	}
}

// TestBenchOutputDeterministic: the benchmark JSON written for CI is
// byte-identical across identical runs.
func TestBenchOutputDeterministic(t *testing.T) {
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeBench(p1, runHarness(t, overloadConfig())); err != nil {
		t.Fatal(err)
	}
	if err := writeBench(p2, runHarness(t, overloadConfig())); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Errorf("bench JSON differs:\n%s\nvs\n%s", b1, b2)
	}
	var bench benchJSON
	if err := json.Unmarshal(b1, &bench); err != nil {
		t.Fatal(err)
	}
	if bench.Name != "controlplane-load" || bench.P99S <= 0 || bench.OfferedRPS <= 0 {
		t.Errorf("bench record incomplete: %+v", bench)
	}
}

// TestRateLimitedAdmission: the token bucket caps admitted throughput in
// the harness exactly as on the server.
func TestRateLimitedAdmission(t *testing.T) {
	cfg := Config{
		Mode: "open", Clients: 8, Carts: 2, Duration: 20, Seed: 2, Rate: 100,
		Admission: admit.Options{MaxInFlight: 4, MaxQueue: 16, Rate: 10, Burst: 5},
	}
	res := runHarness(t, cfg)
	io := res.Admission.Classes[int(admit.ClassIO)]
	if io.RateLimited == 0 {
		t.Error("token bucket never shed at 10x its rate")
	}
	// Admitted ≈ rate×duration + burst; allow slack for bucket dynamics.
	if got, max := io.Admitted, uint64(cfg.Duration*10+20); got > max {
		t.Errorf("admitted %d > bucket ceiling %d", got, max)
	}
}

// TestLiveModeSmoke drives the wall-clock path against a real TCP server
// briefly: the loop must complete requests and close cleanly.
func TestLiveModeSmoke(t *testing.T) {
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
	res := runLive(addr, 2, 500*time.Millisecond, 2, 1e6, 1)
	if res.OK == 0 {
		t.Errorf("live run completed nothing: %+v", res)
	}
	if res.Failed != 0 {
		t.Errorf("%d requests failed against a healthy server: %+v", res.Failed, res)
	}
	if res.Client.Attempts == 0 {
		t.Error("client stats not aggregated")
	}
}

// TestPolicyPiecesWiredIntoHarness: sanity that the harness pulls real
// cpclient pieces (a budget-denied retry shows up when the budget is
// tiny, and retries respect MaxAttempts).
func TestPolicyPiecesWiredIntoHarness(t *testing.T) {
	cfg := overloadConfig()
	cfg.Retry = cpclient.RetryOptions{BudgetBurst: 1, BudgetPerSuccess: 0.001, Seed: 4}
	res := runHarness(t, cfg)
	if res.BudgetDenied == 0 {
		t.Error("1-token budget under overload never denied a retry")
	}
	if res.Retries > 1+res.OK {
		// With one token and ~no earn-back, retries are bounded by the
		// burst plus what successes buy back.
		t.Errorf("retries %d exceed what the budget could fund (ok=%d)", res.Retries, res.OK)
	}
}
