// Command dhlbench is the repository's host-time benchmark. It runs the
// DHL simulators and the §III-D control plane on seeded workloads and
// reports what their users wait for: wall time per simulated event, per
// simulation and per request, set-up time and heap. With -trace 1 it runs
// a separate traced pass that splits that time by layer and writes a
// Chrome trace. Simulated-time outputs are reported under "model" and
// serve only to check correctness; they are never a speed.
//
// The end-to-end timings are measured against the twin (package twin): a
// frozen copy of the code that a child process runs on the same work,
// interleaved with the repository's, so that the host's changing speed
// cancels out of their ratio.
//
// Usage:
//
//	dhlbench [-workload all|NAME] [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
//	dhlbench compare OLD NEW
//	dhlbench goldens
//
// bench/run.sh builds it from source and runs it from the repository
// root. The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics by name with their units. Every run
// also writes a result file with sample counts, quartiles, the model
// outputs and host metadata to -out. The exit status is 0 only when every
// operation succeeded and reproduced its digest.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	if os.Getenv(twinEnv) == "1" {
		os.Exit(twinMain())
	}
	log.SetFlags(0)
	log.SetPrefix("dhlbench: ")
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			os.Exit(compareCmd(args[1:], os.Stdout))
		case "goldens":
			os.Exit(goldensCmd(args[1:], os.Stdout))
		}
	}
	os.Exit(benchCmd(args, os.Stdout))
}

// runOpts are one invocation's settings.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	out     string
}

// result is one workload's run, as written to its result file.
type result struct {
	Workload  string          `json:"workload"`
	Seed      int64           `json:"seed"`
	Trace     bool            `json:"trace"`
	Seconds   float64         `json:"seconds"`
	Host      host            `json:"host"`
	Procs     int             `json:"gomaxprocs"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Errors    []string        `json:"errors,omitempty"`
	Digest    string          `json:"digest"`
	Golden    bool            `json:"golden_checked"`
	Metrics   map[string]stat `json:"metrics"`
	// Raw are the repository's end-to-end timings before calibration, and
	// Twin the twin's, measured beside them.
	Raw       map[string]stat    `json:"raw_metrics,omitempty"`
	Twin      map[string]stat    `json:"twin_metrics,omitempty"`
	Model     map[string]float64 `json:"model,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// line is the last line of standard output.
type line struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func benchCmd(args []string, stdout io.Writer) int {
	ws := workloadsAt(fullSize)
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("dhlbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: all, "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 3, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", runSeconds, "measuring time per workload")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass in place of the end-to-end run")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for result and Chrome trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		log.Printf("unexpected argument %q", fs.Arg(0))
		return 2
	}
	if !(*seconds > 0) {
		log.Printf("-seconds must be positive, got %v", *seconds)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		log.Printf("-trace must be 0 or 1, got %d", *trace)
		return 2
	}
	selected := ws
	if *name != "all" {
		w, ok := workloadNamed(ws, *name)
		if !ok {
			log.Printf("unknown workload %q (known: all, %s)", *name, strings.Join(names, ", "))
			return 2
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Print(err)
		return 1
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	h := hostInfo()
	fmt.Fprintf(stdout, "dhlbench: host %s (%s, %d CPUs), %s, commit %s; workloads run at GOMAXPROCS 1\n",
		h.Hostname, h.CPU, h.NumCPU, h.Go, h.Commit)

	all := line{Correct: true, Metrics: map[string]valueUnit{}}
	for _, w := range selected {
		res := runWorkload(w, ws, o)
		res.Host = h
		writeReport(stdout, res)
		if err := writeResult(o.out, res); err != nil {
			log.Print(err)
			res.Correct = false
		}
		l := lineOf(res)
		all.Correct = all.Correct && l.Correct
		all.Attempted += l.Attempted
		all.Failed += l.Failed
		for k, v := range l.Metrics {
			all.Metrics[w.name+"/"+k] = v
		}
		if len(selected) == 1 {
			all.Metrics = l.Metrics
		}
	}
	b, err := json.Marshal(all)
	if err != nil {
		log.Print(err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !all.Correct {
		return 1
	}
	return 0
}

// runWorkload runs w's end-to-end or traced pass and checks it. It runs
// on one P. The simulators are single-threaded, so garbage collection then
// shares the measured thread and host time counts every CPU cost of an
// event. The serve workload's server and load connections then share one
// core, so throughput measures a request's CPU cost end to end (client,
// kernel loopback, server) instead of cross-core wake-ups, which on a
// virtual machine cost tens of microseconds and vary with the host's load.
func runWorkload(w workload, ws []workload, o runOpts) result {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	tl := &tally{want: w.golden(o.seed)}
	res := result{Workload: w.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds, Golden: tl.want != "", Procs: 1}
	specs := endToEnd
	switch {
	case o.trace:
		specs = perLayer
		rec := newSpanRec(100000)
		layers, err := traceWorkload(w, ws, o.seed, o.seconds, rec, tl)
		if err != nil {
			tl.fail(err)
		}
		res.Metrics = map[string]stat{}
		for _, s := range perLayer {
			if v, ok := layers[s.Name]; ok {
				res.Metrics[s.Name] = stat{Value: v, Unit: s.Unit}
			}
		}
		path, err := writeTrace(o.out, w.name, o.seed, rec)
		if err != nil {
			tl.fail(err)
		}
		res.TraceFile = path
	default:
		var p *pairs
		var other map[string]stat
		if w.serve {
			p, other, res.Model = runServe(w, o.seed, o.seconds, tl)
		} else {
			p, other, res.Model = runSim(w, o.seed, o.seconds, tl)
		}
		res.Metrics, res.Raw, res.Twin = p.metrics()
		for k, v := range other {
			res.Metrics[k] = v
		}
	}
	for _, s := range specs {
		v, ok := res.Metrics[s.Name]
		switch {
		case !ok:
			tl.fail(fmt.Errorf("metric %s was not measured", s.Name))
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			tl.fail(fmt.Errorf("metric %s is %v", s.Name, v.Value))
			delete(res.Metrics, s.Name)
		}
	}
	res.Attempted, res.Failed, res.Errors, res.Digest = tl.attempted, tl.failed, tl.errs, tl.want
	res.Correct = tl.failed == 0 && tl.attempted > 0
	return res
}

func lineOf(res result) line {
	l := line{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]valueUnit{}}
	for k, s := range res.Metrics {
		l.Metrics[k] = valueUnit{s.Value, s.Unit}
	}
	return l
}

// writeReport prints the run for a reader: every metric with its unit and,
// for timings, the sample count and quartiles.
func writeReport(w io.Writer, res result) {
	pass := "end-to-end"
	specs := endToEnd
	if res.Trace {
		pass, specs = "traced per-layer", perLayer
	}
	fmt.Fprintf(w, "%s seed %d, %s pass, %g s\n", res.Workload, res.Seed, pass, res.Seconds)
	for _, s := range specs {
		v, ok := res.Metrics[s.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-38s %14.6g %-5s", s.Name, v.Value, v.Unit)
		if v.N > 0 {
			fmt.Fprintf(w, "  n=%d q1=%.6g q3=%.6g", v.N, v.Q1, v.Q3)
		}
		if v.Samples > 0 {
			fmt.Fprintf(w, " samples=%d", v.Samples)
		}
		if r, ok := res.Raw[s.Name]; ok {
			fmt.Fprintf(w, " raw=%.6g twin=%.6g", r.Value, res.Twin[s.Name].Value)
		}
		fmt.Fprintln(w)
	}
	if len(res.Raw) > 0 {
		fmt.Fprintf(w, "  timings are calibrated against the twin: raw= is this code's median, twin= the frozen copy's\n")
	}
	if len(res.Model) > 0 {
		keys := sortedKeys(res.Model)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%.6g", k, res.Model[k])
		}
		fmt.Fprintf(w, "  model (simulated time, correctness only): %s\n", strings.Join(parts, " "))
	}
	golden := "no golden for this seed"
	if res.Golden {
		golden = "golden checked"
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d digest=%s (%s)\n", res.Correct, res.Attempted, res.Failed, res.Digest, golden)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	if res.TraceFile != "" {
		fmt.Fprintf(w, "  chrome trace: %s\n", res.TraceFile)
	}
}

func writeResult(dir string, res result) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if res.Trace {
		t = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, res.Seed, t))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeTrace(dir, name string, seed int64, rec *spanRec) (string, error) {
	b, err := rec.chrome()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	return path, os.WriteFile(path, b, 0o644)
}
