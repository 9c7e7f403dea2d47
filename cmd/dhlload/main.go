// Command dhlload is the deterministic load generator for the control
// plane (DESIGN.md §11): it replays thousands of concurrent clients —
// with the retry, backoff, and budget behaviour of internal/cpclient —
// through the control-plane server's own request phases (admission,
// execution, snapshot cache) over a real simulated deployment, all on a
// virtual clock. The same flags and seed always produce a byte-identical
// report, so overload behaviour (shed rates, brownout, goodput under 4×
// saturation) is regression-testable; go test pins four reports byte for
// byte (testdata/*.golden).
//
// Modes:
//
//	-mode closed   N clients cycle open → ops×IO → close with think time
//	               (load tracks completions, the classic closed loop)
//	-mode open     Poisson arrivals of IO requests at -rate/s against a
//	               pre-opened fleet; no retries — offered load is the
//	               independent variable
//
// A -chaos scenario (see internal/faults) composes fault injection into
// the same run. -max-queue and -admit-rate configure the server's
// admission controller, which has one executor slot; closed-loop
// clients retry by internal/cpclient's one rule, whose only setting is
// the seed (derived from -seed). -live ADDR switches to a wall-clock
// driver hammering a real dhlserve over TCP instead of the virtual
// harness.
//
// Examples:
//
//	dhlload -clients 1000 -duration 300 -think 0.5
//	dhlload -mode open -rate 200 -duration 120 -chaos rough-day
//	dhlload -live 127.0.0.1:7070 -clients 32 -duration 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"time"

	"repro/internal/admit"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dhlload: ")
	o, err := parseArgs(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		os.Exit(2) // parseArgs has already printed the error
	}
	cfg := o.cfg

	if o.live != "" {
		res := runLive(o.live, cfg.Clients, time.Duration(cfg.Duration*float64(time.Second)),
			cfg.Ops, cfg.Bytes, cfg.Seed)
		fmt.Print(res.Report())
		return
	}

	h, err := newHarness(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := h.Run()
	if err != nil {
		log.Fatal(err)
	}
	if o.json {
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", out)
	} else {
		fmt.Print(res.Report())
	}
}

// cliOptions is everything one command line asks for.
type cliOptions struct {
	cfg  Config
	live string
	json bool
}

// parseArgs reads a command line (without the program name) into the run
// it describes, so tests can replay the exact flags a user would type.
func parseArgs(args []string) (cliOptions, error) {
	var o cliOptions
	c, fs := &o.cfg, flag.NewFlagSet("dhlload", flag.ContinueOnError)
	fs.StringVar(&c.Mode, "mode", "closed", "load shape: closed or open")
	fs.IntVar(&c.Clients, "clients", 100, "concurrent clients, closed loop and -live only")
	fs.Float64Var(&c.Duration, "duration", 120, "virtual seconds of offered load (wall seconds with -live)")
	fs.Int64Var(&c.Seed, "seed", 1, "master seed: same seed, same report, byte for byte")
	fs.Float64Var(&c.Think, "think", 1, "closed-loop think time between cycles, seconds")
	fs.IntVar(&c.Ops, "ops", 4, "IO ops per open/close cycle")
	fs.Float64Var(&c.ReadFrac, "read", 0.5, "fraction of IO ops that are reads")
	fs.Float64Var(&c.Bytes, "bytes", 1e9, "bytes per IO op")
	fs.Float64Var(&c.Rate, "rate", 50, "open-loop aggregate arrival rate, requests/s")
	fs.IntVar(&c.Carts, "carts", 0, "fleet size (0: one per client closed, one per dock station open)")
	fs.StringVar(&c.Chaos, "chaos", "", "compose a fault scenario (see dhlsim -chaos list)")
	fs.Float64Var(&c.StatusEvery, "status-every", 0.5, "control-probe period, virtual seconds (0 disables)")
	fs.Float64Var(&c.RequestTimeout, "timeout", 10, "queued-request abandon timeout, virtual seconds")

	fs.IntVar(&c.Admission.MaxQueue, "max-queue", admit.DefaultMaxQueue, "admission: bounded waiting room")
	fs.Float64Var(&c.Admission.Rate, "admit-rate", 0, "admission: token-bucket rate limit, req/s (0 off)")

	fs.BoolVar(&o.json, "json", false, "print the result as JSON instead of the text report")
	fs.StringVar(&o.live, "live", "", "drive a real server at this TCP address (wall clock)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	// Every numeric flag must lie in the range its help text gives: NaN,
	// ±Inf and out-of-range values are rejected here, not replaced by a
	// default or left to hang the run.
	positive := func(x float64) bool { return x > 0 && x < math.Inf(1) }
	nonNegative := func(x float64) bool { return x >= 0 && x < math.Inf(1) }
	for _, f := range []struct {
		name string
		ok   bool
		want string
	}{
		{"clients", c.Clients >= 1, "at least 1"},
		{"duration", positive(c.Duration), "a positive number of seconds"},
		{"think", nonNegative(c.Think), "a non-negative number of seconds"},
		{"ops", c.Ops >= 1, "at least 1"},
		{"read", c.ReadFrac >= 0 && c.ReadFrac <= 1, "a fraction in [0, 1]"},
		{"bytes", positive(c.Bytes), "a positive number of bytes"},
		{"rate", positive(c.Rate), "a positive rate"},
		{"carts", c.Carts >= 0, "0 or more"},
		{"status-every", nonNegative(c.StatusEvery), "a non-negative number of seconds"},
		{"timeout", positive(c.RequestTimeout), "a positive number of seconds"},
		{"max-queue", c.Admission.MaxQueue >= 1, "at least 1"},
		{"admit-rate", nonNegative(c.Admission.Rate), "0 (off) or a positive rate"},
	} {
		if !f.ok {
			err := fmt.Errorf("invalid value %s for flag -%s: want %s", fs.Lookup(f.name).Value, f.name, f.want)
			fmt.Fprintln(fs.Output(), err)
			return o, err
		}
	}
	return o, nil
}
