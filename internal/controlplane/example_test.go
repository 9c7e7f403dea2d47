package controlplane_test

import (
	"fmt"
	"log"

	"repro/internal/controlplane"
	"repro/internal/dhlsys"
	"repro/internal/units"
)

// ExampleServer runs the §III-D software API over the network: a TCP
// server wrapping a simulated DHL deployment, driven by a client the way a
// rack's storage-management daemon would be.
func ExampleServer() {
	sys, err := dhlsys.New(dhlsys.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	srv, err := controlplane.NewServerWithOptions(sys, controlplane.DefaultServerOptions())
	if err != nil {
		log.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	c, err := controlplane.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	step := func(what string, r controlplane.Response, err error) {
		if err != nil {
			log.Fatalf("%s: %v", what, err)
		}
		if !r.OK {
			log.Fatalf("%s: API error: %s", what, r.Error)
		}
		fmt.Printf("%-22s sim-time %6.1f s (op took %5.1f s)\n", what, r.SimTime, r.OpSeconds)
	}

	// The four paper commands, §III-D.
	r, err := c.Do(controlplane.Request{Op: controlplane.OpOpen, Cart: 0})
	step("Open(cart 0)", r, err)
	r, err = c.Do(controlplane.Request{Op: controlplane.OpWrite, Cart: 0, Bytes: float64(100 * units.TB)})
	step("Write(cart 0, 100 TB)", r, err)
	r, err = c.Do(controlplane.Request{Op: controlplane.OpRead, Cart: 0, Bytes: float64(100 * units.TB)})
	step("Read(cart 0, 100 TB)", r, err)
	r, err = c.Do(controlplane.Request{Op: controlplane.OpClose, Cart: 0})
	step("Close(cart 0)", r, err)

	// Errors are reported through the API, not hidden (§III-D).
	bad, err := c.Do(controlplane.Request{Op: controlplane.OpRead, Cart: 0, Bytes: float64(units.GB)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Read at library rejected: %q\n", bad.Error)

	st, err := c.Do(controlplane.Request{Op: controlplane.OpStatus})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d launches, %d dock ops, %.1f kJ, %v read, %v written\n",
		st.Stats.Launches, st.Stats.DockOps, st.Stats.EnergyJ/1000,
		units.Bytes(st.Stats.BytesRead), units.Bytes(st.Stats.BytesWritten))
	// Output:
	// Open(cart 0)           sim-time    8.6 s (op took   8.6 s)
	// Write(cart 0, 100 TB)  sim-time  529.4 s (op took 520.8 s)
	// Read(cart 0, 100 TB)   sim-time  969.6 s (op took 440.1 s)
	// Close(cart 0)          sim-time  978.2 s (op took   8.6 s)
	// Read at library rejected: "dhlsys: cart not docked at the endpoint: cart 0 at library"
	// 2 launches, 4 dock ops, 30.1 kJ, 100TB read, 100TB written
}
