package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const fixtureBase = "repro/internal/lint/testdata/src/"

func moduleRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Clean(filepath.Join(wd, "..", ".."))
}

// sharedLoader memoizes stdlib type-checking across the whole test run.
var sharedLoader *Loader

func loader(t *testing.T) *Loader {
	t.Helper()
	if sharedLoader == nil {
		sharedLoader = NewLoader(moduleRoot(t), "repro")
	}
	return sharedLoader
}

// fixtureConfig is the repository policy extended so the determ_* and
// purity_* fixture packages count as model code (purity_helpers stays a
// plain utility package on purpose).
func fixtureConfig(t *testing.T) Config {
	cfg := DefaultConfig(moduleRoot(t), "repro")
	cfg.ModelPackages = append(cfg.ModelPackages,
		fixtureBase+"determ_bad", fixtureBase+"determ_clean", fixtureBase+"determ_allow",
		fixtureBase+"purity_bad", fixtureBase+"purity_clean", fixtureBase+"purity_allow")
	return cfg
}

type diagKey struct {
	Rule string
	Line int
}

func keysOf(ds []Diagnostic) []diagKey {
	out := make([]diagKey, len(ds))
	for i, d := range ds {
		out[i] = diagKey{d.Rule, d.Line}
	}
	return out
}

func sameKeys(a, b []diagKey) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestAnalyzersOnFixtures(t *testing.T) {
	tests := []struct {
		name    string
		fixture string
		mutate  func(*Config)
		want    []diagKey
	}{
		{
			name: "determinism true positives", fixture: "determ_bad",
			want: []diagKey{
				{"determinism", 13}, // time.Now
				{"determinism", 14}, // rand.Float64
				{"determinism", 19}, // time.Since
				{"determinism", 24}, // rand.Intn
				{"determinism", 29}, // os.Getenv
				{"determinism", 34}, // time.Now in a package-level var initialiser
			},
		},
		{
			name: "determinism clean seeded rng", fixture: "determ_clean",
			want: nil,
		},
		{
			name: "determinism scope excludes non-model code", fixture: "determ_bad",
			mutate: func(c *Config) { c.ModelPackages = nil },
			want:   nil,
		},
		{
			name: "allow hatch suppresses with justification only", fixture: "determ_allow",
			want: []diagKey{
				{"allow", 17},       // bare allow, no reason
				{"determinism", 18}, // not suppressed by the bare allow
				{"determinism", 23}, // no allow at all
			},
		},
		{
			name: "maporder true positives", fixture: "maporder_bad",
			want: []diagKey{
				{"maporder", 12}, // fmt output in map order
				{"maporder", 21}, // returned slice in map order
				{"maporder", 30}, // float accumulation in map order
				{"maporder", 39}, // builder output in map order
			},
		},
		{
			name: "maporder clean idioms", fixture: "maporder_clean",
			want: nil,
		},
		{
			name: "unitsafety true positives", fixture: "unitsafety_bad",
			want: []diagKey{
				{"unitsafety", 10}, // Bytes → Seconds conversion
				{"unitsafety", 16}, // Seconds × Seconds
				{"unitsafety", 21}, // BitsPerSecond → Watts conversion
				{"unitsafety", 28}, // Bytes → Seconds in a package-level var initialiser
				{"unitsafety", 33}, // Bytes → Seconds in a composite-literal key
			},
		},
		{
			name: "unitsafety clean arithmetic", fixture: "unitsafety_clean",
			want: nil,
		},
		{
			name: "floateq true positives", fixture: "floateq_bad",
			want: []diagKey{
				{"floateq", 7},  // float64 ==
				{"floateq", 15}, // named float type !=
			},
		},
		{
			name: "floateq clean comparisons", fixture: "floateq_clean",
			want: nil,
		},
		{
			name: "goroutine true positives", fixture: "goroutine_bad",
			want: []diagKey{
				{"goroutine", 12}, // go outside sweep
				{"goroutine", 13}, // WaitGroup.Add inside closure
				{"goroutine", 23}, // plain go outside sweep
				{"goroutine", 31}, // Add inside closure behind f := func(){...}; go f()
				{"goroutine", 35}, // go through the binding, outside sweep
			},
		},
		{
			name: "goroutine Add race flagged even in allowed package", fixture: "goroutine_bad",
			mutate: func(c *Config) {
				c.GoroutineAllowed = append(c.GoroutineAllowed, fixtureBase+"goroutine_bad")
			},
			want: []diagKey{{"goroutine", 13}, {"goroutine", 31}},
		},
		{
			name: "goroutine clean pool in allowed package", fixture: "goroutine_clean",
			mutate: func(c *Config) {
				c.GoroutineAllowed = append(c.GoroutineAllowed, fixtureBase+"goroutine_clean")
			},
			want: nil,
		},
		{
			name: "goroutine clean pool still flagged outside allowed set", fixture: "goroutine_clean",
			want: []diagKey{{"goroutine", 14}},
		},
		{
			name: "dimflow true positives", fixture: "dimflow_bad",
			want: []diagKey{
				{"dimflow", 10}, // bytes + seconds
				{"dimflow", 16}, // seconds wrapped as power
				{"dimflow", 23}, // bytes laundered into Ratio
				{"dimflow", 30}, // kilojoules += hours
				{"dimflow", 42}, // if-init
				{"dimflow", 45}, // else branch
				{"dimflow", 47}, // for-post statement
				{"dimflow", 50}, // range body
				{"dimflow", 57}, // switch tag
				{"dimflow", 60}, // case expression
				{"dimflow", 64}, // type-switch clause
				{"dimflow", 68}, // select clause
				{"dimflow", 78}, // labeled statement
				{"dimflow", 81}, // go call argument
				{"dimflow", 82}, // defer call argument
				{"dimflow", 84}, // function literal
			},
		},
		{
			name: "dimflow clean formulas", fixture: "dimflow_clean",
			want: nil,
		},
		{
			name: "dimflow allow hatch", fixture: "dimflow_allow",
			want: []diagKey{
				{"allow", 18},   // bare allow, no reason
				{"dimflow", 19}, // not suppressed by the bare allow
				{"dimflow", 24}, // no allow at all
			},
		},
		{
			name: "unusedallow true positive", fixture: "unusedallow_bad",
			want: []diagKey{{"unusedallow", 8}},
		},
		{
			name: "unusedallow clean live allow", fixture: "unusedallow_clean",
			want: nil,
		},
		{
			name: "unusedallow cover keeps a stale allow alive", fixture: "unusedallow_allow",
			want: []diagKey{{"unusedallow", 15}}, // the uncovered one
		},
		{
			name: "rule filter disables analyzer", fixture: "floateq_bad",
			mutate: func(c *Config) { c.Enabled = map[string]bool{"determinism": true} },
			want:   nil,
		},
		{
			name: "rule filter keeps selected analyzer", fixture: "floateq_bad",
			mutate: func(c *Config) { c.Enabled = map[string]bool{"floateq": true} },
			want:   []diagKey{{"floateq", 7}, {"floateq", 15}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := fixtureConfig(t)
			if tt.mutate != nil {
				tt.mutate(&cfg)
			}
			got, err := RunWithLoader(cfg, loader(t), []string{fixtureBase + tt.fixture})
			if err != nil {
				t.Fatalf("lint %s: %v", tt.fixture, err)
			}
			if !sameKeys(keysOf(got), tt.want) {
				t.Errorf("diagnostics = %v, want %v\nfull: %v", keysOf(got), tt.want, got)
			}
		})
	}
}

// ruleFixtures names, for every rule but allow, the fixture packages the
// rule reports on when it runs alone.
var ruleFixtures = map[string][]string{
	"determinism": {"determ_bad"},
	"maporder":    {"maporder_bad"},
	"unitsafety":  {"unitsafety_bad"},
	"dimflow":     {"dimflow_bad"},
	"floateq":     {"floateq_bad"},
	"goroutine":   {"goroutine_bad"},
	"purity":      {"purity_helpers", "purity_bad"},
	"allocflow":   {"allocflow_bad"},
	"lockcheck":   {"lockcheck_bad"},
	"lockorder":   {"lockorder_bad"},
	"goescape":    {"goescape_bad"},
	// unusedallow judges only the allows of rules that ran, so on its own
	// it fires on a stale unusedallow cover, not on unusedallow_bad's
	// floateq allow.
	"unusedallow": {"unusedallow_allow"},
}

// TestEveryRuleFiresAlone runs each rule on its own (-rules <name>) over
// its fixture and requires a finding of that rule, so a rule that depends
// on a pass the selection would skip cannot go quiet. The fixture table and
// Rules() must name the same rules.
func TestEveryRuleFiresAlone(t *testing.T) {
	listed := map[string]bool{}
	for _, r := range Rules() {
		listed[r.Name] = true
		if r.Name == "allow" {
			continue
		}
		fixtures, ok := ruleFixtures[r.Name]
		if !ok {
			t.Errorf("rule %s has no fixture in ruleFixtures", r.Name)
			continue
		}
		cfg := fixtureConfig(t)
		cfg.Enabled = map[string]bool{r.Name: true}
		var paths []string
		for _, f := range fixtures {
			paths = append(paths, fixtureBase+f)
		}
		diags, err := RunWithLoader(cfg, loader(t), paths)
		if err != nil {
			t.Fatal(err)
		}
		fired := false
		for _, d := range diags {
			fired = fired || d.Rule == r.Name
		}
		if !fired {
			t.Errorf("rule %s alone reports nothing on %v: %v", r.Name, fixtures, diags)
		}
	}
	for name := range ruleFixtures {
		if !listed[name] || name == "allow" {
			t.Errorf("ruleFixtures names %s, which Rules() does not list as a reporting rule", name)
		}
	}
}

func TestRunAggregatesAndSorts(t *testing.T) {
	cfg := fixtureConfig(t)
	diags, err := Run(cfg, []string{fixtureBase + "unitsafety_bad", fixtureBase + "floateq_bad"})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 7 {
		t.Fatalf("got %d diagnostics, want 7: %v", len(diags), diags)
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Errorf("diagnostics out of order: %v before %v", a, b)
		}
	}
	for _, d := range diags {
		if d.Col < 1 || d.Line < 1 {
			t.Errorf("diagnostic missing position: %v", d)
		}
		if !strings.Contains(d.String(), d.Rule+":") {
			t.Errorf("String() misses rule: %q", d.String())
		}
	}
}

// TestPurityTransitiveChains is the interprocedural acceptance case: model
// code that reaches time.Now only through TWO levels of helpers in a
// non-model package is flagged, with the full call chain in the
// diagnostic.
func TestPurityTransitiveChains(t *testing.T) {
	cfg := fixtureConfig(t)
	cfg.Enabled = map[string]bool{"purity": true}
	diags, err := RunWithLoader(cfg, loader(t), []string{
		fixtureBase + "purity_helpers", fixtureBase + "purity_bad", fixtureBase + "purity_clean",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []diagKey{
		{"purity", 11}, // Evaluate → Stamp → clock → time.Now
		{"purity", 16}, // Total → SumValues → map range
	}
	if !sameKeys(keysOf(diags), want) {
		t.Fatalf("diagnostics = %v, want %v\nfull: %v", keysOf(diags), want, diags)
	}
	clock := diags[0]
	if !strings.Contains(clock.Message, "time.Now (wall clock)") {
		t.Errorf("chain diagnostic misses the source: %q", clock.Message)
	}
	if !strings.Contains(clock.Message, "Stamp → ") || !strings.Contains(clock.Message, "clock → time.Now") {
		t.Errorf("message misses the rendered chain: %q", clock.Message)
	}
	if len(clock.Chain) != 3 {
		t.Fatalf("Chain = %v, want 3 frames (Stamp, clock, source)", clock.Chain)
	}
	for i, frag := range []string{"Stamp", "clock", "time.Now (wall clock)"} {
		if !strings.Contains(clock.Chain[i], frag) {
			t.Errorf("Chain[%d] = %q, want it to mention %q", i, clock.Chain[i], frag)
		}
	}
	if !strings.Contains(diags[1].Message, "map iteration order") {
		t.Errorf("map-order seed missing from %q", diags[1].Message)
	}
}

func TestPurityAllowHatch(t *testing.T) {
	cfg := fixtureConfig(t)
	cfg.Enabled = map[string]bool{"purity": true, "allow": true, "unusedallow": true}
	diags, err := RunWithLoader(cfg, loader(t), []string{
		fixtureBase + "purity_helpers", fixtureBase + "purity_allow",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []diagKey{
		{"allow", 17},  // bare allow, no reason
		{"purity", 18}, // not suppressed by the bare allow
		{"purity", 23}, // no allow at all
	}
	if !sameKeys(keysOf(diags), want) {
		t.Errorf("diagnostics = %v, want %v\nfull: %v", keysOf(diags), want, diags)
	}
}

// TestAllocFlowTransitiveChains is the allocation analogue of the purity
// acceptance case: a //dhllint:hotpath function that allocates only
// through two levels of helpers is flagged with the shortest site→root
// chain, and every direct site kind is classified in place.
func TestAllocFlowTransitiveChains(t *testing.T) {
	cfg := fixtureConfig(t)
	cfg.Enabled = map[string]bool{"allocflow": true}
	diags, err := RunWithLoader(cfg, loader(t), []string{
		fixtureBase + "allocflow_bad", fixtureBase + "allocflow_clean",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []diagKey{
		{"allocflow", 24}, // HotChain → describe → format → fmt.Sprintf
		{"allocflow", 31}, // make
		{"allocflow", 32}, // growing append
		{"allocflow", 33}, // interface boxing
		{"allocflow", 34}, // map literal
		{"allocflow", 35}, // map write
		{"allocflow", 48}, // sink(make(...)): the boxing ...
		{"allocflow", 48}, // ... and the make, one position, two sites
	}
	if !sameKeys(keysOf(diags), want) {
		t.Fatalf("diagnostics = %v, want %v\nfull: %v", keysOf(diags), want, diags)
	}
	chain := diags[0]
	if !strings.Contains(chain.Message, "describe → ") || !strings.Contains(chain.Message, "format → fmt.Sprintf") {
		t.Errorf("message misses the rendered chain: %q", chain.Message)
	}
	if len(chain.Chain) != 3 {
		t.Fatalf("Chain = %v, want 3 frames (describe, format, site)", chain.Chain)
	}
	for i, frag := range []string{"describe", "format", "fmt.Sprintf (allocates)"} {
		if !strings.Contains(chain.Chain[i], frag) {
			t.Errorf("Chain[%d] = %q, want it to mention %q", i, chain.Chain[i], frag)
		}
	}
	for i, frag := range []string{"make([]int)", "growing append", "interface boxing", "map literal", "map write",
		"interface boxing ([]int → any)", "make([]int)"} {
		d := diags[i+1]
		if !strings.Contains(d.Message, frag) {
			t.Errorf("direct site %d = %q, want it to mention %q", i, d.Message, frag)
		}
		if len(d.Chain) != 1 {
			t.Errorf("direct site %d Chain = %v, want the single site frame", i, d.Chain)
		}
	}
}

// TestAllocFlowAllowHatch covers the escape-hatch semantics: an in-place
// allow kills the seed (so hot callers of the lazy path stay clean), a
// call-site allow suppresses the edge report, and a stale allow is the
// unusedallow finding the satellite requires.
func TestAllocFlowAllowHatch(t *testing.T) {
	cfg := fixtureConfig(t)
	cfg.Enabled = map[string]bool{"allocflow": true, "allow": true, "unusedallow": true}
	diags, err := RunWithLoader(cfg, loader(t), []string{fixtureBase + "allocflow_allow"})
	if err != nil {
		t.Fatal(err)
	}
	want := []diagKey{
		{"unusedallow", 47}, // Stale's allow suppresses nothing
	}
	if !sameKeys(keysOf(diags), want) {
		t.Errorf("diagnostics = %v, want %v\nfull: %v", keysOf(diags), want, diags)
	}
}

// TestLockCheckChains is the lock-discipline acceptance case: a direct
// unguarded access, a helper verified only through its callers (reported
// at the undischarged call site with the chain down to the access), an
// RWMutex mode violation, and a malformed annotation.
func TestLockCheckChains(t *testing.T) {
	cfg := fixtureConfig(t)
	cfg.Enabled = map[string]bool{"lockcheck": true}
	diags, err := RunWithLoader(cfg, loader(t), []string{
		fixtureBase + "lockcheck_bad", fixtureBase + "lockcheck_clean",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []diagKey{
		{"lockcheck", 18}, // Bump: direct write without mu
		{"lockcheck", 37}, // BumpUnlocked → bump: undischarged caller-must-hold
		{"lockcheck", 58}, // Put: write under RLock only
		{"lockcheck", 65}, // Wrong: guardedby names a non-mutex field
	}
	if !sameKeys(keysOf(diags), want) {
		t.Fatalf("diagnostics = %v, want %v\nfull: %v", keysOf(diags), want, diags)
	}
	direct := diags[0]
	if !strings.Contains(direct.Message, "guardedby mu") || !strings.Contains(direct.Message, "accessed (write)") {
		t.Errorf("direct finding misses the annotation context: %q", direct.Message)
	}
	if len(direct.Chain) != 1 {
		t.Errorf("direct finding Chain = %v, want the single access frame", direct.Chain)
	}
	inter := diags[1]
	if !strings.Contains(inter.Message, "no caller on this path holds it") {
		t.Errorf("interprocedural finding misses the summary phrasing: %q", inter.Message)
	}
	if len(inter.Chain) != 2 {
		t.Fatalf("interprocedural Chain = %v, want 2 frames (bump, access)", inter.Chain)
	}
	for i, frag := range []string{"bump", "Counter.count write access"} {
		if !strings.Contains(inter.Chain[i], frag) {
			t.Errorf("Chain[%d] = %q, want it to mention %q", i, inter.Chain[i], frag)
		}
	}
	if !strings.Contains(diags[2].Message, "accessed (write)") {
		t.Errorf("mode violation should be a write finding: %q", diags[2].Message)
	}
	if !strings.Contains(diags[3].Message, "not a sync.Mutex or sync.RWMutex field") {
		t.Errorf("annotation error misses its phrasing: %q", diags[3].Message)
	}
}

// TestLockCheckStatementForms pins the lockset through each statement form
// the walk threads it through: a lock taken in one branch is gone after the
// join, and a select clause, a range key, a go statement's callee and a
// labeled loop each see the lockset of the statement around them.
func TestLockCheckStatementForms(t *testing.T) {
	cfg := fixtureConfig(t)
	cfg.Enabled = map[string]bool{"lockcheck": true}
	diags, err := RunWithLoader(cfg, loader(t), []string{fixtureBase + "lockcheck_flow"})
	if err != nil {
		t.Fatal(err)
	}
	want := []diagKey{
		{"lockcheck", 23}, // Join: the branch's lock is not held after the join
		{"lockcheck", 41}, // Select: write in a select clause
		{"lockcheck", 57}, // Range: write as a range key
		{"lockcheck", 71}, // Spawn: the go statement's callee runs lock-free
		{"lockcheck", 92}, // Loop: write in a labeled loop
		{"lockcheck", 93}, // Loop: read in a labeled loop
	}
	if !sameKeys(keysOf(diags), want) {
		t.Errorf("diagnostics = %v, want %v\nfull: %v", keysOf(diags), want, diags)
	}
}

func TestLockCheckAllowHatch(t *testing.T) {
	cfg := fixtureConfig(t)
	cfg.Enabled = map[string]bool{"lockcheck": true, "allow": true, "unusedallow": true}
	diags, err := RunWithLoader(cfg, loader(t), []string{fixtureBase + "lockcheck_allow"})
	if err != nil {
		t.Fatal(err)
	}
	want := []diagKey{
		{"unusedallow", 40}, // Stale's allow suppresses nothing
	}
	if !sameKeys(keysOf(diags), want) {
		t.Errorf("diagnostics = %v, want %v\nfull: %v", keysOf(diags), want, diags)
	}
}

// TestLockOrderCycles pins both deadlock shapes: the direct AB/BA
// inversion between sibling methods, and the inversion visible only when
// a call edge is expanded into the locks the callee may acquire.
func TestLockOrderCycles(t *testing.T) {
	cfg := fixtureConfig(t)
	cfg.Enabled = map[string]bool{"lockorder": true}
	diags, err := RunWithLoader(cfg, loader(t), []string{
		fixtureBase + "lockorder_bad", fixtureBase + "lockorder_clean",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []diagKey{
		{"lockorder", 18}, // pair.a → pair.b → pair.a, anchored at AB's second Lock
		{"lockorder", 48}, // qr.q → qr.r → qr.q, anchored at Q's call into lockR
	}
	if !sameKeys(keysOf(diags), want) {
		t.Fatalf("diagnostics = %v, want %v\nfull: %v", keysOf(diags), want, diags)
	}
	direct := diags[0]
	if !strings.Contains(direct.Message, "potential deadlock") {
		t.Errorf("cycle finding misses the deadlock phrasing: %q", direct.Message)
	}
	for _, frag := range []string{"pair.AB acquires", "pair.BA acquires"} {
		if !strings.Contains(direct.Message, frag) {
			t.Errorf("cycle message misses the witness %q: %q", frag, direct.Message)
		}
	}
	if len(direct.Chain) != 2 {
		t.Errorf("direct cycle Chain = %v, want one witness per edge", direct.Chain)
	}
	transitive := diags[1]
	if !strings.Contains(transitive.Message, "qr.Q calls") {
		t.Errorf("transitive cycle should witness the call edge: %q", transitive.Message)
	}
	if len(transitive.Chain) != 3 {
		t.Errorf("transitive Chain = %v, want call frame + Lock frame + reverse edge", transitive.Chain)
	}
}

func TestLockOrderAllowHatch(t *testing.T) {
	cfg := fixtureConfig(t)
	cfg.Enabled = map[string]bool{"lockorder": true, "allow": true, "unusedallow": true}
	diags, err := RunWithLoader(cfg, loader(t), []string{fixtureBase + "lockorder_allow"})
	if err != nil {
		t.Fatal(err)
	}
	want := []diagKey{
		{"unusedallow", 34}, // Stale's allow suppresses nothing
	}
	if !sameKeys(keysOf(diags), want) {
		t.Errorf("diagnostics = %v, want %v\nfull: %v", keysOf(diags), want, diags)
	}
}

// TestGoEscapeFindings pins the four sharing shapes: a *rand.Rand
// capture, a concurrently written map, a map shared across sweep
// workers, and an escape visible only through a method call propagated
// over the call graph.
func TestGoEscapeFindings(t *testing.T) {
	cfg := fixtureConfig(t)
	cfg.Enabled = map[string]bool{"goescape": true}
	diags, err := RunWithLoader(cfg, loader(t), []string{
		fixtureBase + "goescape_bad", fixtureBase + "goescape_clean",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []diagKey{
		{"goescape", 19}, // Draw: *rand.Rand captured and still drawn from
		{"goescape", 29}, // Count: map written inside the goroutine
		{"goescape", 42}, // Tally: map shared across sweep workers
		{"goescape", 62}, // Observe: *sim.Engine reached through h.now()
	}
	if !sameKeys(keysOf(diags), want) {
		t.Fatalf("diagnostics = %v, want %v\nfull: %v", keysOf(diags), want, diags)
	}
	if !strings.Contains(diags[0].Message, "*rand.Rand") {
		t.Errorf("rand capture misses the type: %q", diags[0].Message)
	}
	if !strings.Contains(diags[1].Message, "(map)") {
		t.Errorf("map capture misses the type: %q", diags[1].Message)
	}
	if !strings.Contains(diags[2].Message, "sweep task") || !strings.Contains(diags[2].Message, "concurrent workers") {
		t.Errorf("sweep share misses the pool phrasing: %q", diags[2].Message)
	}
	chain := diags[3]
	if len(chain.Chain) != 2 {
		t.Fatalf("propagated Chain = %v, want 2 frames (host.now, engine touch)", chain.Chain)
	}
	for i, frag := range []string{"host.now", "*sim.Engine.Now"} {
		if !strings.Contains(chain.Chain[i], frag) {
			t.Errorf("Chain[%d] = %q, want it to mention %q", i, chain.Chain[i], frag)
		}
	}
}

func TestGoEscapeAllowHatch(t *testing.T) {
	cfg := fixtureConfig(t)
	cfg.Enabled = map[string]bool{"goescape": true, "allow": true, "unusedallow": true}
	diags, err := RunWithLoader(cfg, loader(t), []string{fixtureBase + "goescape_allow"})
	if err != nil {
		t.Fatal(err)
	}
	want := []diagKey{
		{"unusedallow", 20}, // Stale's allow suppresses nothing
	}
	if !sameKeys(keysOf(diags), want) {
		t.Errorf("diagnostics = %v, want %v\nfull: %v", keysOf(diags), want, diags)
	}
}

func TestCallGraphDump(t *testing.T) {
	cfg := fixtureConfig(t)
	var pkgs []*Package
	for _, ip := range []string{fixtureBase + "purity_helpers", fixtureBase + "purity_bad"} {
		pkg, err := loader(t).Load(ip)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	var buf bytes.Buffer
	buildCallGraph(&cfg, pkgs).Dump(&buf)
	out := buf.String()
	if !strings.HasPrefix(out, "# call graph: ") {
		t.Errorf("dump misses the summary header:\n%s", out)
	}
	for _, frag := range []string{
		".Evaluate -> ", ".Stamp -> ", ".clock => time.Now (wall clock)",
		".SumValues => map iteration order",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("dump misses %q:\n%s", frag, out)
		}
	}
}

// TestParallelMatchesSequential pins the satellite guarantee: any worker
// count yields byte-identical, input-ordered diagnostics.
func TestParallelMatchesSequential(t *testing.T) {
	paths := []string{
		fixtureBase + "determ_bad", fixtureBase + "maporder_bad", fixtureBase + "unitsafety_bad",
		fixtureBase + "dimflow_bad", fixtureBase + "floateq_bad", fixtureBase + "goroutine_bad",
		fixtureBase + "purity_helpers", fixtureBase + "purity_bad", fixtureBase + "unusedallow_bad",
		fixtureBase + "allocflow_bad", fixtureBase + "allocflow_allow",
		fixtureBase + "lockcheck_bad", fixtureBase + "lockorder_bad", fixtureBase + "goescape_bad",
	}
	cfg := fixtureConfig(t)
	cfg.Workers = 1
	seq, err := RunWithLoader(cfg, loader(t), paths)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) == 0 {
		t.Fatal("expected findings from the bad fixtures")
	}
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		par, err := RunWithLoader(cfg, loader(t), paths)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d diverges from sequential:\nseq: %v\npar: %v", workers, seq, par)
		}
	}
}

func TestDedupeCollapsesSameSite(t *testing.T) {
	ds := []Diagnostic{
		{File: "a.go", Line: 4, Col: 2, Rule: "purity", Message: "second chain"},
		{File: "a.go", Line: 4, Col: 2, Rule: "purity", Message: "first chain"},
		{File: "a.go", Line: 4, Col: 2, Rule: "dimflow", Message: "different rule"},
	}
	sortDiagnostics(ds)
	got := dedupe(ds)
	if len(got) != 2 {
		t.Fatalf("dedupe kept %d diagnostics, want 2: %v", len(got), got)
	}
	if got[0].Rule != "dimflow" || got[1].Rule != "purity" {
		t.Errorf("unexpected survivors: %v", got)
	}
}

// TestDefaultConfigCoversModelPackages pins the model-package roster: every
// package whose outputs must be deterministic — telemetry included, since
// its exports are byte-diffable artefacts — is subject to the determinism
// and purity rules.
func TestDefaultConfigCoversModelPackages(t *testing.T) {
	cfg := DefaultConfig(moduleRoot(t), "repro")
	want := []string{
		"repro/internal/physics", "repro/internal/core", "repro/internal/sim",
		"repro/internal/faults", "repro/internal/telemetry", "repro/internal/tubenet",
	}
	have := map[string]bool{}
	for _, p := range cfg.ModelPackages {
		have[p] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("DefaultConfig model packages missing %s", w)
		}
	}
}

func TestModulePackages(t *testing.T) {
	pkgs, err := ModulePackages(moduleRoot(t), "repro")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"repro", "repro/internal/core", "repro/internal/lint", "repro/internal/units", "repro/cmd/dhllint"}
	have := map[string]bool{}
	for _, p := range pkgs {
		have[p] = true
		if strings.Contains(p, "testdata") {
			t.Errorf("testdata package leaked into module walk: %s", p)
		}
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("ModulePackages missing %s", w)
		}
	}
}

// TestRepositoryIsLintClean is the self-hosting gate: the repository must
// pass its own linter (real violations fixed or justified with an
// explicit allow). This mirrors the scripts/check.sh tier-2 gate.
func TestRepositoryIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root := moduleRoot(t)
	cfg := DefaultConfig(root, "repro")
	pkgs, err := ModulePackages(root, "repro")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(cfg, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%v", d)
	}
}
