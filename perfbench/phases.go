package main

import (
	"time"

	"ripki/internal/sim"
)

// Engine phases of one sim Step, in the order the engine runs them.
const (
	phScenario = iota
	phFlush
	phRefresh
	phProbe
	numPhases
)

var phaseNames = [numPhases]string{"sim.scenario", "sim.flush", "sim.refresh", "sim.probe"}

// phaseCounts accumulates measured Steps: their time, the time in each
// phase and the residual no phase covers, and the engine's work counts.
type phaseCounts struct {
	steps                               int
	stepTime, residual                  time.Duration
	phase                               [numPhases]time.Duration
	flushes, refreshes, dropped, probes int
}

func (c *phaseCounts) add(o *phaseCounts) {
	c.steps += o.steps
	c.stepTime += o.stepTime
	c.residual += o.residual
	for i := range c.phase {
		c.phase[i] += o.phase[i]
	}
	c.flushes += o.flushes
	c.refreshes += o.refreshes
	c.dropped += o.dropped
	c.probes += o.probes
}

// report writes the per-tick phase metrics: mean time per measured tick
// in each phase, and the per-tick counts of flushes, relying-party
// refreshes, dropped routes and probes.
func (c *phaseCounts) report(r *report) {
	if c.steps == 0 {
		return
	}
	n := float64(c.steps)
	for i, name := range phaseNames {
		r.metrics[name+"_us"] = us(c.phase[i]) / n
	}
	r.metrics["sim.step_us"] = us(c.stepTime) / n
	r.metrics["sim.flushes"] = float64(c.flushes) / n
	r.metrics["sim.rp_refreshes"] = float64(c.refreshes) / n
	r.metrics["sim.routes_dropped"] = float64(c.dropped) / n
	r.metrics["sim.probes"] = float64(c.probes) / n
	r.metrics["sim.residual_share"] = c.residualShare()
}

// residualShare is the part of the measured step time no phase covers.
func (c *phaseCounts) residualShare() float64 {
	if c.stepTime == 0 {
		return 0
	}
	return float64(c.residual) / float64(c.stepTime)
}

// phaseRecorder splits sim Steps into engine phases from wall stamps
// taken by a bus subscriber. The engine publishes FlushData when the
// cache flush ends, RefreshData once every due relying party has polled
// and revalidated, and SampleData when the probe has recorded its row;
// any other event is a scenario mutation. So the interval from the
// previous stamp (or the Step's start) to an event belongs to that
// event's phase, and the time after the last event is the Step's
// residual.
//
// Without a tracer the recorder only times Steps and takes the
// visibility stamp: when the fast relying party's refresh lands. With
// one it also splits phases and records spans.
type phaseRecorder struct {
	phaseCounts
	tr     *tracer
	trace  int
	parent int
	fastRP string

	active     bool
	stepStart  time.Time
	mark       time.Time
	stepSpan   int
	visible    time.Duration
	sawVisible bool
}

// attach subscribes the recorder; it sees only events of Steps bracketed
// by begin and end.
func (p *phaseRecorder) attach(sm *sim.Simulation) {
	sm.Bus.SubscribeAll(p.onEvent)
}

func (p *phaseRecorder) begin(now time.Time) {
	p.active = true
	p.stepStart, p.mark = now, now
	p.sawVisible = false
	p.stepSpan = p.tr.open("sim.step", now, p.parent, p.trace)
}

func (p *phaseRecorder) end(now time.Time) {
	p.active = false
	p.steps++
	p.stepTime += now.Sub(p.stepStart)
	if p.tr != nil {
		p.residual += now.Sub(p.mark)
		p.tr.close(p.stepSpan, now)
	}
}

func (p *phaseRecorder) onEvent(e sim.Event) {
	if !p.active {
		return
	}
	now := time.Now()
	ph := phScenario
	switch d := e.Data.(type) {
	case sim.FlushData:
		ph = phFlush
		p.flushes++
	case sim.RefreshData:
		ph = phRefresh
		p.refreshes++
		p.dropped += d.Dropped
		if d.RP == p.fastRP && !p.sawVisible {
			p.visible, p.sawVisible = now.Sub(p.stepStart), true
		}
	case sim.SampleData:
		ph = phProbe
		p.probes++
	}
	if p.tr == nil {
		return
	}
	p.phase[ph] += now.Sub(p.mark)
	p.tr.add(phaseNames[ph], p.mark, now, p.stepSpan, p.trace)
	p.mark = now
}
