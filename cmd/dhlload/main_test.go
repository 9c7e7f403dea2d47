package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

var update = flag.Bool("update", false, "rewrite the report goldens under testdata/")

// goldenRuns are command lines whose full reports are pinned under
// testdata/: the CI overload run, an open loop, a chaos run and a
// rate-limited, per-connection-capped run.
var goldenRuns = []struct{ name, args string }{
	{"ci-closed", "-mode closed -clients 48 -duration 30 -seed 9 -think 0.1 -status-every 0.5 -max-queue 8"},
	{"open", "-mode open -rate 200 -duration 60 -seed 3"},
	{"chaos-rough-day", "-chaos rough-day"},
	{"admit-rate", "-admit-rate 5 -per-conn 1"},
}

// TestReportGoldens pins each golden run's text report and JSON result
// byte for byte, so a change to the harness or to the server code it
// drives shows up as a diff. Run with -update to re-record.
func TestReportGoldens(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			o, err := parseArgs(strings.Fields(g.args))
			if err != nil {
				t.Fatal(err)
			}
			res := runHarness(t, o.cfg)
			js, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got := "# dhlload " + g.args + "\n" + res.Report() + string(js) + "\n"
			path := filepath.Join("testdata", g.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s differs from the golden; first difference:\n%s", path, firstDiff(string(want), got))
			}
		})
	}
}

// firstDiff renders the first line where want and got disagree.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d\n- %s\n+ %s", i+1, wl, gl)
		}
	}
	return "(none)"
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

// TestOpenLoopBelowSaturationFailsNothing: below saturation every open
// loop request succeeds, reads included. The default fleet fits the dock
// stations, and each cart holds data before the first read.
func TestOpenLoopBelowSaturationFailsNothing(t *testing.T) {
	for _, read := range []float64{0.5, 1} {
		res := runHarness(t, Config{
			Mode: "open", Duration: 30, Seed: 3, Rate: 50, ReadFrac: read, StatusEvery: 0.5,
		})
		if res.Failed != 0 || res.ShedBusy != 0 || res.OK != res.Issued || res.OK == 0 {
			t.Errorf("read fraction %g: issued=%d ok=%d failed=%d shed=%d, want every request ok",
				read, res.Issued, res.OK, res.Failed, res.ShedBusy)
		}
	}
}

// TestOpenLoopRejectsMoreCartsThanDocks: open mode keeps every cart
// docked, so a fleet larger than the dock bank is refused up front.
func TestOpenLoopRejectsMoreCartsThanDocks(t *testing.T) {
	if _, err := newHarness(Config{Mode: "open", Carts: 5}); err == nil {
		t.Error("5 carts against 4 dock stations should be rejected in open mode")
	}
	if _, err := newHarness(Config{Mode: "closed", Carts: 5}); err != nil {
		t.Errorf("closed mode takes any fleet: %v", err)
	}
}

// TestChaosComposition: a fault scenario composes into the load run and
// stays deterministic.
func TestChaosComposition(t *testing.T) {
	for _, mode := range []string{"closed", "open"} {
		cfg := Config{
			Mode: mode, Clients: 24, Duration: 20, Seed: 5,
			Think: 0.2, StatusEvery: 0.5, Chaos: "rough-day",
			Admission: admit.Options{MaxInFlight: 1, MaxQueue: 8},
		}
		a := runHarness(t, cfg)
		if a.Faults == 0 {
			t.Errorf("%s: chaos scenario injected no faults", mode)
		}
		b := runHarness(t, cfg)
		if a.Report() != b.Report() {
			t.Errorf("%s: chaos run not reproducible", mode)
		}
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
