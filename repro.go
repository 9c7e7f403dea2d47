// Package repro is a from-scratch Go reproduction of "The Case For Data
// Centre Hyperloops" (ISCA 2024): an analytical and event-driven model of
// data centre hyperloops (DHLs) — maglev carts carrying M.2 SSDs through
// evacuated tubes — evaluated against 400 Gb/s optical networking for
// PB-scale bulk data movement.
//
// The root package holds only the cross-package tests; the model lives in
// the implementation packages:
//
//   - internal/core:    the paper's analytical DHL model (Table VI, §V-E)
//   - internal/netmodel: the optical-network energy baseline (Fig. 2)
//   - internal/astra:   the "astra-lite" DLRM training study (Table VII, Fig. 6)
//   - internal/dhlsys:  the event-driven system simulation with the §III-D API
//   - internal/cost:    the materials cost model (Table VIII)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-versus-measured numbers for every table and figure.
package repro
