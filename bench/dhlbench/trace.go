package main

import (
	"strings"
	"time"

	"repro/bench/internal/hist"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// category is the layer an event-kernel event belongs to, decided from
// its name. The names are the fixed vocabularies of internal/tubenet,
// internal/dhlsys and internal/faults.
type category int

const (
	catBuild category = iota // construction, before the first event
	catDispatch
	catRouter
	catFault
	catTransit
	catDock
	catIO
	catOther
	numCats
)

var catNames = [numCats]string{"build", "dispatch", "router", "fault", "transit", "dock", "io", "other"}

func categoryOf(name string) category {
	switch name {
	case "campus-depart", "campus-arrive", "campus-dwell", "campus-park":
		return catDispatch
	case "route-epoch":
		return catRouter
	case "transit-out", "transit-in":
		return catTransit
	case "undock@library", "undock@endpoint", "dock@library", "dock@endpoint":
		return catDock
	case "io", "io-degraded":
		return catIO
	}
	if strings.HasPrefix(name, "fault:") || strings.HasPrefix(name, "repair:") {
		return catFault
	}
	return catOther
}

// selfTimer attributes a traced rep's wall time to layers. Attached as an
// engine tracer, it charges the time between two event callbacks to the
// earlier event's category: that event's own work plus the kernel's
// dispatch of the next. It also samples the queue depth at every event.
type selfTimer struct {
	eng      *sim.Engine
	cur      category
	began    time.Time
	last     time.Time
	runStart time.Time
	self     [numCats]time.Duration
	count    [numCats]int
	depth    hist.Hist
	wall     time.Duration

	// rec, when non-nil, receives one span per run of consecutive events
	// of one category on track.
	rec   *spanRec
	track string
}

func newSelfTimer(rec *spanRec, track string) *selfTimer {
	now := time.Now()
	return &selfTimer{began: now, last: now, runStart: now, rec: rec, track: track}
}

// attach registers the timer on eng.
func (t *selfTimer) attach(eng *sim.Engine) {
	t.eng = eng
	eng.AddTracer(t.onEvent)
}

// switchTo charges the time so far to the current category and continues
// in c — for work outside events, such as the route computation Start
// does before the first event.
func (t *selfTimer) switchTo(c category) { t.advance(time.Now(), c) }

func (t *selfTimer) onEvent(ev sim.Event) {
	now := time.Now()
	c := categoryOf(ev.Name)
	t.count[c]++
	t.depth.Record(uint64(t.eng.Pending()))
	t.advance(now, c)
}

func (t *selfTimer) advance(now time.Time, c category) {
	t.self[t.cur] += now.Sub(t.last)
	if c != t.cur {
		t.rec.add(t.track, catNames[t.cur], t.runStart, now)
		t.runStart = now
	}
	t.cur, t.last = c, now
}

// end closes the rep: the last event's time includes whatever the caller
// did after the engine drained.
func (t *selfTimer) end() {
	now := time.Now()
	t.self[t.cur] += now.Sub(t.last)
	t.rec.add(t.track, catNames[t.cur], t.runStart, now)
	t.wall = now.Sub(t.began)
}

// nsPer is the self time of category c per event of c, in nanoseconds.
func (t *selfTimer) nsPer(c category) float64 {
	if t.count[c] == 0 {
		return 0
	}
	return float64(t.self[c].Nanoseconds()) / float64(t.count[c])
}

// share is the percentage of the rep's wall time spent in cs.
func (t *selfTimer) share(cs ...category) float64 {
	var d time.Duration
	for _, c := range cs {
		d += t.self[c]
	}
	return 100 * d.Seconds() / t.wall.Seconds()
}

// span is one host-time interval, as an offset from the recorder's start.
type span struct {
	track, name string
	start, end  time.Duration
}

// spanRec collects host-time spans for one Chrome trace file. It keeps at
// most limit spans, so a long traced run writes a bounded file; the
// earliest spans are the ones kept. A nil recorder drops everything.
type spanRec struct {
	t0    time.Time
	limit int
	spans []span
}

func newSpanRec(limit int) *spanRec { return &spanRec{t0: time.Now(), limit: limit} }

func (r *spanRec) add(track, name string, start, end time.Time) {
	if r == nil || len(r.spans) >= r.limit {
		return
	}
	r.spans = append(r.spans, span{track, name, start.Sub(r.t0), end.Sub(r.t0)})
}

// child is a recorder on r's clock with its own limit, for spans that
// must not crowd out r's; merge hands them back.
func (r *spanRec) child(limit int) *spanRec {
	if r == nil {
		return nil
	}
	return &spanRec{t0: r.t0, limit: limit}
}

func (r *spanRec) merge(c *spanRec) {
	if c != nil {
		r.addAll(c.spans)
	}
}

// addAll appends spans recorded elsewhere against the same start time.
func (r *spanRec) addAll(ss []span) {
	if r == nil {
		return
	}
	for _, s := range ss {
		if len(r.spans) >= r.limit {
			return
		}
		r.spans = append(r.spans, s)
	}
}

// chrome renders the spans as Chrome trace_event JSON through the
// repository's exporter, with wall seconds in place of simulated ones.
func (r *spanRec) chrome() ([]byte, error) {
	l := telemetry.NewSpanLog()
	for _, s := range r.spans {
		l.Span(s.track, s.name, units.Seconds(s.start.Seconds()), units.Seconds(s.end.Seconds()))
	}
	return telemetry.ChromeTrace(l)
}
