// Command dhlserve runs the §III-D control plane: a TCP server exposing a
// simulated DHL deployment's Open/Close/Read/Write/Status/Metrics API as
// newline-delimited JSON. Telemetry is always on: status responses carry
// the metrics snapshot, and the metrics op returns the Prometheus text
// exposition of the deployment's registry. Metrics are exact over the
// server's life, but its span log keeps only the last 65 536 spans (and
// instants); dhl_telemetry_dropped_records_total counts the records it
// has evicted, so a long-running server's memory stays bounded.
//
// Usage:
//
//	dhlserve [-addr 127.0.0.1:7070] [-carts N] [-docks N] [-dual]
//	         [-pprof ADDR] [-drain 5s] [-max-conns N]
//	         [-max-queue N] [-admit-rate R]
//
// -max-queue defaults to admit.DefaultMaxQueue (64). A connection has one
// request in flight at most: a pipelining peer waits its turn. It must
// deliver each request frame within 30 s and keep it under 1 MiB; both
// limits are fixed. SIGINT/SIGTERM drains in-flight exchanges for -drain,
// then severs the stragglers and logs how many were cut off.
//
// Example session (one JSON object per line):
//
//	{"op":"open","cart":0}
//	{"op":"read","cart":0,"bytes":1e12}
//	{"op":"close","cart":0}
//	{"op":"status"}
//	{"op":"metrics"}
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/admit"
	"repro/internal/controlplane"
	"repro/internal/dhlsys"
	"repro/internal/telemetry"
	"repro/internal/track"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dhlserve: ")
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "listen address")
		carts     = flag.Int("carts", 2, "fleet size")
		docks     = flag.Int("docks", 4, "endpoint docking stations")
		dual      = flag.Bool("dual", false, "dual-rail track")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof profiles on this address (e.g. 127.0.0.1:6060); empty disables")

		drain     = flag.Duration("drain", 5*time.Second, "graceful-shutdown drain before severing connections")
		maxConns  = flag.Int("max-conns", 0, "connection cap (0 off); excess connections get a busy reply")
		maxQueue  = flag.Int("max-queue", admit.DefaultMaxQueue, "admission: bounded waiting room behind the simulation")
		admitRate = flag.Float64("admit-rate", 0, "admission: token-bucket rate limit, req/s (0 off)")
	)
	flag.Parse()

	opt := dhlsys.DefaultOptions()
	opt.NumCarts = *carts
	opt.DockStations = *docks
	opt.Telemetry = telemetry.NewSet()
	if *dual {
		opt.RailMode = track.DualRail
	}

	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		//dhllint:allow goroutine -- wall-clock profiling endpoint; the simulation stays single-threaded behind the control plane
		go func() {
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
		fmt.Printf("pprof profiles on http://%s/debug/pprof/\n", *pprofAddr)
	}
	sys, err := dhlsys.New(opt)
	if err != nil {
		log.Fatal(err)
	}
	sopt := controlplane.DefaultServerOptions()
	sopt.DrainTimeout = *drain
	sopt.MaxConns = *maxConns
	sopt.Admission.MaxQueue = *maxQueue
	sopt.Admission.Rate = *admitRate
	srv, err := controlplane.NewServerWithOptions(sys, sopt)
	if err != nil {
		log.Fatal(err)
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DHL control plane on %s (%d carts, %d docks, %v)\n",
		bound, opt.NumCarts, opt.DockStations, opt.RailMode)
	fmt.Println("Send newline-delimited JSON requests; SIGINT/SIGTERM drains and stops.")

	// Graceful shutdown: both Ctrl-C and the SIGTERM a supervisor sends
	// drain in-flight exchanges for -drain, then sever the stragglers.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	log.Printf("%v: draining for up to %v", got, *drain)
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
	if n := srv.Severed(); n > 0 {
		log.Printf("drain deadline expired: severed %d connection(s)", n)
	} else {
		log.Printf("drained cleanly")
	}
}
