package faults

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Target is the system a fault script acts on. Inject applies a fault at
// its scheduled time; Recover fires Duration later for faults with an
// outage window. Both run on the simulation's event loop, so they may
// mutate simulation state freely but must not block.
type Target interface {
	Inject(Fault)
	Recover(Fault)
}

// Phase distinguishes the two halves of a fault's life in the event log.
type Phase string

const (
	// PhaseInject marks the fault striking.
	PhaseInject Phase = "inject"
	// PhaseRecover marks the fault's repair completing.
	PhaseRecover Phase = "recover"
)

// Record is one event-log entry. Records are appended in simulation-time
// order (the event kernel fires in timestamp order), so the log for a
// fixed script is byte-identical across runs.
type Record struct {
	T     units.Seconds
	Phase Phase
	Fault Fault
}

// String renders the record as one stable log line.
func (r Record) String() string {
	return fmt.Sprintf("t=%.3fs %s %v", float64(r.T), r.Phase, r.Fault)
}

// KindStats aggregates one taxonomy kind.
type KindStats struct {
	Kind      Kind
	Injected  int
	Recovered int
	// Downtime is the summed outage window of this kind's recovered
	// faults (overlaps between kinds are not deduplicated here; see
	// Injector.Downtime for the union).
	Downtime units.Seconds
}

// Summary is the per-kind fault accounting, in fixed taxonomy order —
// never map-ordered, so serialisations are deterministic.
type Summary struct {
	Total   int
	PerKind []KindStats
}

// String renders the non-zero rows.
func (s Summary) String() string {
	out := fmt.Sprintf("%d faults", s.Total)
	for _, ks := range s.PerKind {
		if ks.Injected == 0 {
			continue
		}
		out += fmt.Sprintf("; %v×%d", ks.Kind, ks.Injected)
	}
	return out
}

// Injector arms a fault script on a simulation engine and replays it
// against a target. It also accepts immediate injections (InjectNow) from
// stochastic fault sources that roll their own explicitly-seeded dice —
// e.g. the per-launch SSD failure probability — so every fault in a run,
// scripted or rolled, lands in one log and one taxonomy.
type Injector struct {
	engine *sim.Engine
	target Target
	script Script

	log     []Record
	perKind [numKinds]KindStats

	// Outage-union bookkeeping: downtime is the measure of the union of
	// all outage windows seen so far, openStart the start of the current
	// open interval while active > 0.
	active    int
	openStart units.Seconds
	downtime  units.Seconds

	// Telemetry (optional, nil-safe): per-kind inject counters, a total,
	// and instant marks + outage spans on the "faults" track.
	telInjected  *telemetry.Counter
	telRecovered *telemetry.Counter
	telPerKind   [numKinds]*telemetry.Counter
	telSpans     *telemetry.SpanLog

	// Interned span-log IDs (SetTelemetry): the faults track, each kind's
	// instant-mark name, and each kind's outage-span name. Stochastic
	// sources strike on the hot event loop, so marks are ID-based records.
	trackID   telemetry.StrID
	kindIDs   [numKinds]telemetry.StrID
	outageIDs [numKinds]telemetry.StrID
}

// FaultTrack is the span-log track name fault events land on.
const FaultTrack = "faults"

// Interned per-kind event and span names. Stochastic sources inject on
// the hot event loop (the per-launch SSD dice), so the naming of fault,
// repair, and outage events must not concatenate strings per fault.
var (
	faultEventNames    [numKinds]string
	repairEventNames   [numKinds]string
	outageSpanNames    [numKinds]string
	perKindMetricNames [numKinds]string
)

func init() {
	for k := 0; k < int(numKinds); k++ {
		s := Kind(k).String()
		faultEventNames[k] = "fault:" + s
		repairEventNames[k] = "repair:" + s
		outageSpanNames[k] = "outage:" + s
		perKindMetricNames[k] = "dhl_faults_" + s + "_total"
	}
}

// SetTelemetry wires the injector to a telemetry set: every fault
// increments dhl_faults_injected_total and its per-kind counter, repairs
// increment dhl_faults_recovered_total, and the span log receives an
// instant mark per phase plus an outage span per windowed fault. A nil
// set (or nil fields) disables the corresponding output; call before
// driving the simulation.
func (in *Injector) SetTelemetry(set *telemetry.Set) {
	reg := set.MetricsOf()
	in.telInjected = reg.Counter("dhl_faults_injected_total")
	in.telRecovered = reg.Counter("dhl_faults_recovered_total")
	for k := 0; k < int(numKinds); k++ {
		in.telPerKind[k] = reg.Counter(perKindMetricNames[k])
	}
	in.telSpans = set.SpansOf()
	in.trackID = in.telSpans.Intern(FaultTrack)
	for k := 0; k < int(numKinds); k++ {
		in.kindIDs[k] = in.telSpans.Intern(Kind(k).String())
		in.outageIDs[k] = in.telSpans.Intern(outageSpanNames[k])
	}
}

// NewInjector builds an injector for one engine/target pair. The script
// may be empty (stochastic-only operation).
func NewInjector(engine *sim.Engine, target Target, script Script) (*Injector, error) {
	if engine == nil {
		return nil, errors.New("faults: nil engine")
	}
	if target == nil {
		return nil, errors.New("faults: nil target")
	}
	return &Injector{engine: engine, target: target, script: script}, nil
}

// Script returns the armed script.
func (in *Injector) Script() Script { return in.script }

// Arm schedules every scripted fault (and its recovery) on the engine.
// Call once, before driving the simulation.
func (in *Injector) Arm() error {
	for _, f := range in.script.Sorted() {
		f := f
		if _, err := in.engine.At(f.At, faultEventNames[f.Kind], func() {
			in.apply(f)
		}); err != nil {
			return fmt.Errorf("faults: arming %v: %w", f, err)
		}
	}
	return nil
}

// InjectNow applies a fault immediately at the engine's current time,
// bypassing the script — the entry point for stochastic sources.
func (in *Injector) InjectNow(f Fault) {
	f.At = in.engine.Now()
	in.apply(f)
}

// apply strikes the fault: log, account, notify the target, and schedule
// the recovery if the fault has an outage window.
func (in *Injector) apply(f Fault) {
	now := in.engine.Now()
	in.log = append(in.log, Record{T: now, Phase: PhaseInject, Fault: f})
	ks := &in.perKind[f.Kind]
	ks.Kind = f.Kind
	ks.Injected++
	in.telInjected.Inc()
	in.telPerKind[f.Kind].Inc()
	in.telSpans.RecordInstant(in.trackID, in.kindIDs[f.Kind], now, in.telSpans.ArgsOf(
		telemetry.KV{Key: "phase", Value: string(PhaseInject)},
		telemetry.KV{Key: "target", Value: f.target()}))
	if f.Duration > 0 {
		if in.active == 0 {
			in.openStart = now
		}
		in.active++
		in.engine.MustAfter(f.Duration, repairEventNames[f.Kind], func() {
			in.recover(f)
		})
	}
	in.target.Inject(f)
}

func (in *Injector) recover(f Fault) {
	now := in.engine.Now()
	in.log = append(in.log, Record{T: now, Phase: PhaseRecover, Fault: f})
	ks := &in.perKind[f.Kind]
	ks.Recovered++
	ks.Downtime += f.Duration
	in.telRecovered.Inc()
	in.telSpans.RecordSpan(in.trackID, in.outageIDs[f.Kind], now-f.Duration, now,
		in.telSpans.ArgsOf(telemetry.KV{Key: "target", Value: f.target()}))
	in.active--
	if in.active == 0 {
		in.downtime += now - in.openStart
	}
	in.target.Recover(f)
}

// Log returns the event log so far, in simulation-time order.
func (in *Injector) Log() []Record { return append([]Record(nil), in.log...) }

// LogLines renders the event log as stable strings — the byte-identity
// artefact chaos runs compare across replays.
func (in *Injector) LogLines() []string {
	out := make([]string, len(in.log))
	for i, r := range in.log {
		out[i] = r.String()
	}
	return out
}

// Summary returns the per-kind accounting in taxonomy order.
func (in *Injector) Summary() Summary {
	s := Summary{PerKind: make([]KindStats, numKinds)}
	for i := range in.perKind {
		ks := in.perKind[i]
		ks.Kind = Kind(i)
		s.PerKind[i] = ks
		s.Total += ks.Injected
	}
	return s
}

// Total returns the number of faults injected so far, Summary().Total
// without the per-kind rows.
func (in *Injector) Total() int {
	n := 0
	for i := range in.perKind {
		n += in.perKind[i].Injected
	}
	return n
}

// Downtime returns the measure of the union of all outage windows up to
// the engine's current time: the "not fully nominal" time an availability
// figure divides by. Overlapping faults of any kind count once.
func (in *Injector) Downtime() units.Seconds {
	d := in.downtime
	if in.active > 0 {
		d += in.engine.Now() - in.openStart
	}
	return d
}
