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

// configOf parses a dhlload command line into the Config it runs.
func configOf(t *testing.T, args string) Config {
	t.Helper()
	o, err := parseArgs(strings.Fields(args))
	if err != nil {
		t.Fatal(err)
	}
	return o.cfg
}

var update = flag.Bool("update", false, "rewrite the report goldens under testdata/")

// goldenRuns are command lines whose full reports are pinned under
// testdata/: the CI overload run, an open loop, a chaos run and a
// rate-limited run.
var goldenRuns = []struct{ name, args string }{
	{"ci-closed", "-mode closed -clients 48 -duration 30 -seed 9 -think 0.1 -status-every 0.5 -max-queue 8"},
	{"open", "-mode open -rate 200 -duration 60 -seed 3"},
	{"chaos-rough-day", "-chaos rough-day"},
	{"admit-rate", "-admit-rate 5"},
}

// TestReportGoldens pins each golden run's text report and JSON result
// byte for byte, so a change to the harness or to the server code it
// drives shows up as a diff, and checks that no quantile exceeds the
// next or the exact maximum. Run with -update to re-record.
func TestReportGoldens(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			o, err := parseArgs(strings.Fields(g.args))
			if err != nil {
				t.Fatal(err)
			}
			res := runHarness(t, o.cfg)
			if !(res.P50S <= res.P90S && res.P90S <= res.P99S && res.P99S <= res.MaxS) {
				t.Errorf("quantiles out of order: p50=%g p90=%g p99=%g max=%g", res.P50S, res.P90S, res.P99S, res.MaxS)
			}
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

// TestGoldenFilesMatchRows: every row of goldenRuns has its file under
// testdata/, and every file there belongs to a row, so a renamed or
// dropped row cannot leave behind a golden that nothing checks.
func TestGoldenFilesMatchRows(t *testing.T) {
	rows := map[string]bool{}
	for _, g := range goldenRuns {
		if rows[g.name+".golden"] {
			t.Errorf("two rows of goldenRuns are named %s", g.name)
		}
		rows[g.name+".golden"] = true
	}
	files, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[string]bool{}
	for _, f := range files {
		onDisk[f.Name()] = true
		if !rows[f.Name()] {
			t.Errorf("testdata/%s belongs to no row of goldenRuns", f.Name())
		}
	}
	for _, g := range goldenRuns {
		if !onDisk[g.name+".golden"] {
			t.Errorf("row %s has no testdata/%s.golden", g.name, g.name)
		}
	}
}

// TestParseArgsRejectsBadValues: a NaN, infinite or out-of-range numeric
// flag is an error naming the flag, never a silent default or a run that
// hangs.
func TestParseArgsRejectsBadValues(t *testing.T) {
	for _, args := range []string{
		"-duration NaN", "-duration -5", "-duration +Inf", "-think NaN", "-think -1",
		"-clients 0", "-ops 0", "-read 1.5", "-read NaN", "-bytes -1", "-bytes NaN",
		"-rate -3", "-rate NaN", "-carts -1", "-status-every NaN", "-timeout 0",
		"-max-queue 0", "-admit-rate NaN", "-admit-rate -1",
	} {
		flagName := strings.Fields(args)[0]
		_, err := parseArgs(strings.Fields(args))
		if err == nil || !strings.Contains(err.Error(), "flag "+flagName+":") {
			t.Errorf("%s: err = %v, want an error naming %s", args, err, flagName)
		}
	}
	if _, err := parseArgs([]string{"-think", "0", "-carts", "0", "-status-every", "0", "-admit-rate", "0"}); err != nil {
		t.Errorf("the documented zero values must parse: %v", err)
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

// overloadArgs offers roughly 4× the executor's capacity: 48 writing
// clients with 100ms think against a serial executor whose launch ops
// take seconds each, behind an 8-deep queue.
const overloadArgs = "-mode closed -clients 48 -duration 30 -seed 9 -think 0.1 -status-every 0.5 -max-queue 8 -read 0"

// TestClosedLoopDeterministic pins the harness's core contract: two runs
// with the same config produce byte-identical reports and JSON.
func TestClosedLoopDeterministic(t *testing.T) {
	a := runHarness(t, configOf(t, overloadArgs))
	b := runHarness(t, configOf(t, overloadArgs))
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
	cfg := configOf(t, overloadArgs)
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
	res := runHarness(t, configOf(t, overloadArgs))
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
	res := runHarness(t, configOf(t,
		"-mode open -clients 16 -carts 4 -duration 20 -seed 3 -rate 400 -status-every 0.5 -max-queue 8 -read 0"))
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
		res := runHarness(t, configOf(t, fmt.Sprintf(
			"-mode open -duration 30 -seed 3 -rate 50 -read %g -status-every 0.5", read)))
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
		cfg := configOf(t, "-mode "+mode+
			" -clients 24 -duration 20 -seed 5 -think 0.2 -status-every 0.5 -chaos rough-day -max-queue 8 -read 0")
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
	if _, err := newHarness(configOf(t, "-chaos no-such-scenario")); err == nil {
		t.Error("unknown scenario should fail fast")
	}
}

// TestRateLimitedAdmission: the token bucket caps admitted throughput in
// the harness exactly as on the server.
func TestRateLimitedAdmission(t *testing.T) {
	cfg := configOf(t,
		"-mode open -clients 8 -carts 2 -duration 20 -seed 2 -rate 100 -max-queue 16 -admit-rate 10 -read 0 -status-every 0")
	res := runHarness(t, cfg)
	io := res.Admission.Classes[int(admit.ClassIO)]
	if io.RateLimited == 0 {
		t.Error("token bucket never shed at 10x its rate")
	}
	// Admitted ≈ rate×duration + burst, where the bucket holds max(Rate, 1)
	// = 10 tokens; allow slack for bucket dynamics.
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
	srv, err := controlplane.NewServerWithOptions(sys, controlplane.DefaultServerOptions())
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

// TestPolicyPiecesWiredIntoHarness: the harness retries by cpclient's
// rule against one fleet-wide budget, so under overload the budget runs
// dry and denies retries, and the retries it funded never exceed its
// burst plus what the successes earned back.
func TestPolicyPiecesWiredIntoHarness(t *testing.T) {
	res := runHarness(t, configOf(t, overloadArgs))
	if res.BudgetDenied == 0 {
		t.Error("the shared budget never denied a retry under overload")
	}
	burst := 0
	for b := cpclient.NewBudget(); b.Withdraw(); {
		burst++
	}
	// Each success earns back a tenth of a token.
	if funded := float64(burst) + 0.1*float64(res.OK); float64(res.Retries) > funded {
		t.Errorf("retries %d exceed what the budget could fund (burst %d, ok %d)", res.Retries, burst, res.OK)
	}
}
