package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
)

// runMainEnv, when set, makes the test binary run main with its
// arguments instead of the tests, so a test can drive the command
// end to end and check its exit status and output.
const runMainEnv = "DHLSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runDhlsim runs the command with args and returns its stdout, stderr
// and exit code.
func runDhlsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestCampusCountsBelowOneAreRejected: a zero fleet or trip count must
// fail with a message instead of falling through to tubenet's defaults
// (64 carts, 2 trips).
func TestCampusCountsBelowOneAreRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-campus", "-campus-carts", "0"}, "-campus-carts must be at least 1"},
		{[]string{"-campus", "-campus-trips", "0", "-campus-carts", "10"}, "-campus-trips must be at least 1"},
		{[]string{"-campus-study", "1", "-campus-carts", "-3"}, "-campus-carts must be at least 1"},
	} {
		stdout, stderr, code := runDhlsim(t, tc.args...)
		if code != 1 || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("dhlsim %v: exit %d, stderr %q, stdout %q; want exit 1 with %q and no output",
				tc.args, code, stderr, stdout, tc.want)
		}
	}
}

// TestNegativeDurationsAreRejected: a negative -timeout, -backoff,
// -horizon or -campus-epoch must fail with a message instead of running as
// if it were 0 ("none", "immediate", the default horizon, "recompute only
// on faults").
func TestNegativeDurationsAreRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-timeout", "-5"}, "-timeout must be 0 or more seconds, got -5"},
		{[]string{"-backoff", "-1"}, "-backoff must be 0 or more seconds, got -1"},
		{[]string{"-horizon", "-5", "-chaos", "rough-day"}, "-horizon must be 0 or more seconds, got -5"},
		{[]string{"-campus", "-campus-carts", "10", "-horizon", "-5"}, "-horizon must be 0 or more seconds"},
		{[]string{"-timeout", "NaN"}, "-timeout must be 0 or more seconds, got NaN"},
		{[]string{"-campus", "-campus-carts", "20", "-campus-epoch", "-5"}, "-campus-epoch must be 0 or more seconds, got -5"},
	} {
		stdout, stderr, code := runDhlsim(t, tc.args...)
		if code != 1 || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("dhlsim %v: exit %d, stderr %q, stdout %q; want exit 1 with %q and no output",
				tc.args, code, stderr, stdout, tc.want)
		}
	}
}

// TestDatasetSizeMustBePositive: a zero, negative, NaN or infinite
// -dataset fails with a message naming the flag, not deep inside the
// simulator.
func TestDatasetSizeMustBePositive(t *testing.T) {
	for _, tc := range []struct{ v, want string }{
		{"0PB", "-dataset must be positive, got 0B"},
		{"NaNPB", `-dataset: units: size "NaNPB" is not finite`},
		{"InfPB", `-dataset: units: size "InfPB" is not finite`},
		{"-1PB", `-dataset: units: negative size "-1PB"`},
	} {
		stdout, stderr, code := runDhlsim(t, "-dataset", tc.v)
		if code != 1 || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("-dataset %s: exit %d, stderr %q, stdout %q; want exit 1 with %q and no output",
				tc.v, code, stderr, stdout, tc.want)
		}
	}
}

// TestFailureSweepRejectsBadRateBeforeRunning: the whole -failure-sweep
// list is parsed and range-checked first, so a bad entry prints no header
// and no rows.
func TestFailureSweepRejectsBadRateBeforeRunning(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"0.1,abc", `bad rate "abc"`},
		{"0.1,-1", `rate "-1" outside [0, 1]`},
		{"0.1,NaN", `rate "NaN" outside [0, 1]`},
	} {
		stdout, stderr, code := runDhlsim(t, "-failure-sweep", tc.spec)
		if code != 1 || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("%s: exit %d, stderr %q, stdout %q; want exit 1, %q and no output",
				tc.spec, code, stderr, stdout, tc.want)
		}
	}
}

func TestUnknownChaosMessageGolden(t *testing.T) {
	_, err := faults.ScenarioDims("typhoon", 1, 100, faults.Dims{Carts: 2, Stations: 4, DevicesPerCart: 16})
	if !errors.Is(err, faults.ErrUnknownScenario) {
		t.Fatalf("err = %v, want ErrUnknownScenario", err)
	}
	got := unknownChaosMessage(err)
	want := `faults: unknown scenario: "typhoon" (known: [ssd-storm leaky-tube blocked-track brownout rough-day campus-partition])
valid -chaos scenarios:
  ssd-storm         a burst of in-flight SSD deaths
  leaky-tube        repeated vacuum leaks of varying severity
  blocked-track     cart stalls and debris on the rail
  brownout          LIM power losses and dock-station failures
  rough-day         all of the above at once, at lower per-kind rates
  campus-partition  junction and tube-segment failures carving a campus apart (-campus only)
replay any scenario byte-identically with -chaos NAME -seed N`
	if got != want {
		t.Errorf("usage message drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestCampusEpochZeroRecomputesOnlyOnFaults pins the -campus-epoch help
// text: 0 turns periodic route recomputes off, exactly like a negative
// period, instead of selecting tubenet's 30 s default.
func TestCampusEpochZeroRecomputesOnlyOnFaults(t *testing.T) {
	epochs := func(epoch float64) int {
		t.Helper()
		c, err := campusSim(campusOptions{carts: 50, trips: 2, seed: 1, epoch: epoch}, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.RouteEpochs
	}
	off, zero, periodic := epochs(-1), epochs(0), epochs(30)
	if zero != off {
		t.Errorf("-campus-epoch 0: %d route epochs, want %d as with -campus-epoch -1", zero, off)
	}
	if periodic <= off {
		t.Errorf("-campus-epoch 30: %d route epochs, want more than the %d with epochs off", periodic, off)
	}
}

// golden is one command line whose stdout is pinned in
// testdata/<name>.golden.
type golden struct{ name, args string }

// metricsGoldens are the command lines whose full output is pinned: a
// shuttle under rough-day chaos and a 200-cart campus under
// campus-partition, both with the -metrics summary; the 1,000-cart campus
// of EXPERIMENTS.md; the failure-rate sweep; and every fault scenario
// replayed with its fault log (scenarioGoldens). Re-record one with
// `go run ./cmd/dhlsim <args> > cmd/dhlsim/testdata/<name>.golden`.
var metricsGoldens = append([]golden{
	{"shuttle-rough-day", "-metrics -chaos rough-day -read -seed 7"},
	{"campus-partition", "-campus -campus-carts 200 -chaos campus-partition -metrics -seed 3"},
	{"campus-1000", "-campus -campus-carts 1000 -campus-trips 2 -chaos campus-partition -seed 3"},
	{"failure-sweep", "-failure-sweep 0,0.05,0.1,0.2,0.3,0.5 -seed 1337 -read"},
}, scenarioGoldens()...)

// scenarioGoldens has one row per faults.Scenarios() entry, named
// chaos-<scenario>: a shuttle scenario runs with endpoint reads, and a
// campus-only one, whose script cannot be drawn without campus segments,
// runs on a 200-cart campus.
func scenarioGoldens() []golden {
	shuttle := faults.Dims{Carts: 1, Stations: 1, DevicesPerCart: 1}
	var rows []golden
	for _, s := range faults.Scenarios() {
		args := "-chaos " + s.Name + " -seed 1337 -read -fault-log"
		if _, err := faults.ScenarioDims(s.Name, 1, 100, shuttle); err != nil {
			args = "-campus -campus-carts 200 -chaos " + s.Name + " -seed 1337 -fault-log"
		}
		rows = append(rows, golden{"chaos-" + s.Name, args})
	}
	return rows
}

// TestMetricsGoldens pins each run's stdout byte for byte, so a change to
// how a metric is counted or exported shows up as a diff.
func TestMetricsGoldens(t *testing.T) {
	for _, g := range metricsGoldens {
		t.Run(g.name, func(t *testing.T) {
			stdout, stderr, code := runDhlsim(t, strings.Fields(g.args)...)
			if code != 0 {
				t.Fatalf("dhlsim %s: exit %d, stderr %q", g.args, code, stderr)
			}
			path := filepath.Join("testdata", g.name+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if stdout != string(want) {
				t.Errorf("%s differs from the golden; first difference:\n%s", path, firstDiff(string(want), stdout))
			}
		})
	}
}

// TestGoldenFilesMatchRows: every row of metricsGoldens has its file under
// testdata/, and every file there belongs to a row, so a renamed or
// dropped row (a scenario leaving faults.Scenarios(), say) cannot leave
// behind a golden that nothing checks.
func TestGoldenFilesMatchRows(t *testing.T) {
	rows := map[string]bool{}
	for _, g := range metricsGoldens {
		if rows[g.name+".golden"] {
			t.Errorf("two rows of metricsGoldens are named %s", g.name)
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
			t.Errorf("testdata/%s belongs to no row of metricsGoldens", f.Name())
		}
	}
	for _, g := range metricsGoldens {
		if !onDisk[g.name+".golden"] {
			t.Errorf("row %s has no testdata/%s.golden", g.name, g.name)
		}
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
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return "(none)"
}
