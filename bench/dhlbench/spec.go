package main

// runSeconds is how long one workload measures by default: BENCHMARK.json's
// run_seconds. Window lengths follow it and serve's heap grows with its
// request count, so results taken at another -seconds are not comparable
// with these.
const runSeconds = 25

// metricSpec is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulators or the server sees,
// reported by every workload with tracing off. A workload's unit of work
// is one complete simulation (the sim workloads) or one request (serve).
var endToEnd = []metricSpec{
	{"host_ns_per_event", "ns", "lower", 0.15},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"p50_us", "us", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
	{"heap_peak_mb", "MB", "lower", 0.10},
}

// perLayer are the traced pass's layer metrics. Each names the layer it
// times; README.md says which end-to-end metric and workload it should
// move, and which workload it is measured on.
var perLayer = []metricSpec{
	{"sim.kernel_ns_per_event", "ns", "lower", 0},
	{"sim.queue_depth_p50", "count", "lower", 0},
	{"sim.events_per_rep", "count", "lower", 0},
	{"tubenet.dispatch_ns_per_event", "ns", "lower", 0},
	{"tubenet.router_us_per_recompute", "us", "lower", 0},
	{"tubenet.router_share", "%", "lower", 0},
	{"tubenet.router_recompute_us_isolated", "us", "lower", 0},
	{"tubenet.route_epochs", "count", "lower", 0},
	{"tubenet.reroutes", "count", "lower", 0},
	{"tubenet.loiters", "count", "lower", 0},
	{"tubenet.stalls", "count", "lower", 0},
	{"faults.events_per_rep", "count", "lower", 0},
	{"faults.us_per_event", "us", "lower", 0},
	{"dhlsys.transit_ns_per_event", "ns", "lower", 0},
	{"dhlsys.dock_ns_per_event", "ns", "lower", 0},
	{"dhlsys.io_ns_per_event", "ns", "lower", 0},
	{"dhlsys.new_us", "us", "lower", 0},
	{"dhlsys.execute_ns", "ns", "lower", 0},
	{"telemetry.overhead_pct", "%", "lower", 0},
	{"telemetry.spans_per_rep", "count", "lower", 0},
	{"telemetry.snapshot_ns", "ns", "lower", 0},
	{"telemetry.prometheus_us", "us", "lower", 0},
	{"telemetry.retained_bytes_per_request", "B", "lower", 0},
	{"controlplane.decode_ns", "ns", "lower", 0},
	{"controlplane.encode_ns", "ns", "lower", 0},
	{"controlplane.tcp_rtt_us", "us", "lower", 0},
	{"controlplane.layer_sum_us", "us", "lower", 0},
	{"controlplane.residual_us", "us", "lower", 0},
	{"controlplane.open_p50_us", "us", "lower", 0},
	{"controlplane.close_p50_us", "us", "lower", 0},
	{"controlplane.read_p50_us", "us", "lower", 0},
	{"controlplane.write_p50_us", "us", "lower", 0},
	{"controlplane.status_p50_us", "us", "lower", 0},
	{"controlplane.metrics_p50_us", "us", "lower", 0},
	{"admit.admitted", "count", "higher", 0},
	{"admit.shed", "count", "lower", 0},
	{"admit.queue_depth_max", "count", "lower", 0},
	{"admit.est_service_us", "us", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.accounted_pct", "%", "higher", 0},
}

// twinRef is each workload's end-to-end timings on the twin: the median
// of three 25-second runs at seed 3 on a 2-core virtual machine (Intel Xeon
// Processor, 2 vCPUs), Go 1.24.0, GOMAXPROCS 1, pinned to one vCPU, while
// its host ran between quiet and about 1.5× slower. A calibrated timing is
// the repository's timing in these units: at the commit that froze the
// twin, both sides run the same code, so every calibrated timing reads
// within a few percent of its reference.
var twinRef = map[string]map[string]float64{
	"campus-chaos":   {"host_ns_per_event": 726.8, "ops_per_s": 3.784, "p50_us": 264300, "setup_s": 0.2583},
	"campus-calm":    {"host_ns_per_event": 298.1, "ops_per_s": 9.268, "p50_us": 107400, "setup_s": 0.1104},
	"shuttle-bulk":   {"host_ns_per_event": 162.5, "ops_per_s": 77.59, "p50_us": 12890, "setup_s": 0.04190},
	"serve-loopback": {"host_ns_per_event": 16890, "ops_per_s": 36230, "p50_us": 45.90, "setup_s": 0.0007150},
}
