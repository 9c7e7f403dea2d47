// Command dhlload is the deterministic load generator for the control
// plane (DESIGN.md §11): it replays thousands of concurrent clients —
// with the retry, backoff, and budget behaviour of internal/cpclient —
// through the control-plane server's own request phases (admission,
// execution, snapshot cache) over a real simulated deployment, all on a
// virtual clock. The same flags and seed always produce a byte-identical
// report, so overload behaviour (shed rates, brownout, goodput under 4×
// saturation) is regression-testable and CI byte-compares two runs.
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
// the same run. -live ADDR switches to a wall-clock driver hammering a
// real dhlserve over TCP instead of the virtual harness.
//
// Examples:
//
//	dhlload -clients 1000 -duration 300 -think 0.5
//	dhlload -mode open -rate 200 -duration 120 -chaos rough-day
//	dhlload -clients 64 -duration 60 -bench-out SIM_controlplane.json
//	dhlload -live 127.0.0.1:7070 -clients 32 -duration 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dhlload: ")
	o, err := parseArgs(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		os.Exit(2) // the flag set has already printed the error and usage
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
	if o.benchOut != "" {
		if err := writeBench(o.benchOut, res); err != nil {
			log.Fatal(err)
		}
	}
}

// cliOptions is everything one command line asks for.
type cliOptions struct {
	cfg      Config
	live     string
	benchOut string
	json     bool
}

// parseArgs reads a command line (without the program name) into the run
// it describes, so tests can replay the exact flags a user would type.
func parseArgs(args []string) (cliOptions, error) {
	var o cliOptions
	c, fs := &o.cfg, flag.NewFlagSet("dhlload", flag.ContinueOnError)
	fs.StringVar(&c.Mode, "mode", "closed", "load shape: closed or open")
	fs.IntVar(&c.Clients, "clients", 100, "concurrent clients (closed) / connections (open)")
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

	fs.IntVar(&c.Admission.MaxInFlight, "max-inflight", 1, "admission: concurrent executor slots")
	fs.IntVar(&c.Admission.MaxQueue, "max-queue", 64, "admission: bounded waiting room")
	fs.Float64Var(&c.Admission.Rate, "admit-rate", 0, "admission: token-bucket rate limit, req/s (0 off)")
	fs.IntVar(&c.Admission.PerConn, "per-conn", 0, "admission: outstanding-request cap per connection (0 off)")

	fs.StringVar(&o.benchOut, "bench-out", "", "write the result as benchmark JSON to this file")
	fs.BoolVar(&o.json, "json", false, "print the result as JSON instead of the text report")
	fs.StringVar(&o.live, "live", "", "drive a real server at this TCP address (wall clock)")
	err := fs.Parse(args)
	c.Retry.Seed = c.Seed
	return o, err
}

// benchJSON is the stable schema of SIM_controlplane.json, consumed by
// CI trend tracking. Its latencies and req/s are virtual-time outcomes of
// the simulated fleet, not the server's wall-clock speed. Field order and
// formatting are fixed; two identical runs produce identical bytes.
type benchJSON struct {
	Name        string  `json:"name"`
	Mode        string  `json:"mode"`
	Clients     int     `json:"clients"`
	DurationS   float64 `json:"duration_s"`
	Seed        int64   `json:"seed"`
	Chaos       string  `json:"chaos,omitempty"`
	P50S        float64 `json:"p50_s"`
	P90S        float64 `json:"p90_s"`
	P99S        float64 `json:"p99_s"`
	OfferedRPS  float64 `json:"offered_rps"`
	GoodputRPS  float64 `json:"goodput_rps"`
	Utilization float64 `json:"utilization"`
	ShedBusy    int     `json:"shed_busy"`
	Retries     int     `json:"retries"`
	CtlStale    int     `json:"ctl_stale"`
	OK          int     `json:"ok"`
	Failed      int     `json:"failed"`
}

func writeBench(path string, r *Result) error {
	b := benchJSON{
		Name:        "controlplane-load",
		Mode:        r.Config.Mode,
		Clients:     r.Config.Clients,
		DurationS:   r.Config.Duration,
		Seed:        r.Config.Seed,
		Chaos:       r.Config.Chaos,
		P50S:        r.P50S,
		P90S:        r.P90S,
		P99S:        r.P99S,
		OfferedRPS:  r.OfferedRPS,
		GoodputRPS:  r.GoodputRPS,
		Utilization: r.Utilization,
		ShedBusy:    r.ShedBusy,
		Retries:     r.Retries,
		CtlStale:    r.CtlStale,
		OK:          r.OK,
		Failed:      r.Failed,
	}
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(path, out, 0o644)
}
