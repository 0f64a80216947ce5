package main

import (
	"bytes"
	"fmt"
	"time"

	"ripki/internal/rib"
	"ripki/internal/sim"
	"ripki/internal/webworld"
)

// sim-steady: back-to-back single simulations whose ticks all do the
// same work. rp-lag with one issue and one revoke per tick makes every
// tick flush exactly once; its roster polls at 1, 5 and 20 ticks beside
// a legacy router; hijack-window adds a sub-prefix hijack and an
// emergency ROA. The 8 h horizon (960 ticks) stays below the churn
// candidate pool, so the churn never drains — checkSteadyTicks fails
// the run if it does.
const (
	steadyScenario = "hijack-window+rp-lag"
	steadyDomains  = 20000
	steadyTick     = 30 * time.Second
	steadyHorizon  = 8 * time.Hour
	steadyDigested = 3 // simulations whose series make the digest
	steadyFastRP   = "rp-1t"
)

// steadySim is one simulation past its first probe.
type steadySim struct {
	idx   int
	sm    *sim.Simulation
	rec   *phaseRecorder
	setup time.Duration
}

// countRoutes is the size of the world RIB every relying party's router
// is seeded with.
func countRoutes(w *webworld.World) int {
	n := 0
	w.RIB.WalkRoutes(func(rib.Route) bool { n++; return true })
	return n
}

// startSteadySim is simulation idx's set-up: generate its world, build
// the simulation on it and run the first Step, which takes the t=0
// probe. Timing of the measured ticks starts after it.
func startSteadySim(b *bench, idx int, traced bool) (*steadySim, error) {
	var tr *tracer
	if traced {
		tr = b.tr
	}
	t0 := time.Now()
	w, err := webworld.Generate(webworld.Config{Seed: mix(b.seed, 2*idx), Domains: steadyDomains})
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	sm, err := sim.New(sim.Config{
		Scenario: steadyScenario,
		Params:   sim.Params{"rp-lag.issue": "1", "rp-lag.revoke": "1"},
		Seed:     mix(b.seed, 2*idx+1),
		Domains:  steadyDomains,
		Tick:     steadyTick,
		Duration: steadyHorizon,
		World:    w,
	})
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	rec := &phaseRecorder{tr: tr, trace: idx, parent: -1, fastRP: steadyFastRP}
	rec.attach(sm)
	sm.Step()
	t3 := time.Now()
	tr.add("webworld.generate", t0, t1, -1, idx)
	tr.add("sim.new", t1, t2, -1, idx)
	tr.add("sim.first_probe", t2, t3, -1, idx)
	return &steadySim{idx: idx, sm: sm, rec: rec, setup: t3.Sub(t0)}, nil
}

// runTicks steps the simulation to its horizon, timing every Step.
func (s *steadySim) runTicks(stepMS, visibleMS *[]float64) {
	for {
		t := time.Now()
		s.rec.begin(t)
		ok := s.sm.Step()
		e := time.Now()
		s.rec.end(e)
		*stepMS = append(*stepMS, ms(e.Sub(t)))
		if s.rec.sawVisible {
			*visibleMS = append(*visibleMS, ms(s.rec.visible))
		}
		if !ok {
			return
		}
	}
}

// checkSteadyTicks is the constant-work guard: every measured tick must
// carry exactly one cache flush and exactly the relying-party refreshes
// the roster's cadence schedules. It reads the engine's own event log,
// so it costs nothing while ticks are timed.
func checkSteadyTicks(sm *sim.Simulation) error {
	type tally struct{ flushes, refreshes int }
	at := make(map[time.Duration]*tally)
	for _, e := range sm.Series.Events {
		t := at[e.T]
		if t == nil {
			t = &tally{}
			at[e.T] = t
		}
		switch e.Data.(type) {
		case sim.FlushData:
			t.flushes++
		case sim.RefreshData:
			t.refreshes++
		}
	}
	ticks := int(steadyHorizon / steadyTick)
	for n := 1; n <= ticks; n++ {
		want := 0
		for _, rp := range sm.RPs {
			if rp.Spec.RefreshTicks > 0 && n%rp.Spec.RefreshTicks == 0 {
				want++
			}
		}
		got := at[time.Duration(n)*steadyTick]
		if got == nil {
			got = &tally{}
		}
		if got.flushes != 1 {
			return fmt.Errorf("tick %d carried %d flushes, want 1 (churn drained?)", n, got.flushes)
		}
		if got.refreshes != want {
			return fmt.Errorf("tick %d carried %d RP refreshes, want %d", n, got.refreshes, want)
		}
	}
	return nil
}

// finishSteadySim checks a completed simulation and closes it, returning
// its series in TSV form.
func finishSteadySim(s *steadySim, rep *report) []byte {
	defer s.sm.Close()
	if err := s.sm.Err(); err != nil {
		rep.failed++
		rep.problem("sim %d: %v", s.idx, err)
		return nil
	}
	if err := checkSteadyTicks(s.sm); err != nil {
		rep.problem("sim %d: %v", s.idx, err)
	}
	var buf bytes.Buffer
	if err := s.sm.Series.WriteTSV(&buf); err != nil {
		rep.problem("sim %d: writing series: %v", s.idx, err)
	}
	return buf.Bytes()
}

func runSimSteady(b *bench) (*report, error) {
	rep := newReport()
	gs := startGoStats()
	var stepMS, visibleMS, simRate, simP99, setups []float64
	var totals phaseCounts
	var dig digester
	outputs := make([][]byte, steadyDigested)
	var digestedStep time.Duration // step time of the digested simulations
	routes := 0

	// Simulations back to back, each with its own seed and world, until
	// the measured ticks fill the time.
	start := time.Now()
	for j := 0; j < steadyDigested || time.Since(start) < b.seconds; j++ {
		s, err := startSteadySim(b, j, b.traced)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		if j == 0 {
			routes = countRoutes(s.sm.World) * len(s.sm.RPs)
		}
		var ticks []float64
		s.runTicks(&ticks, &visibleMS)
		rep.attempted += int64(len(ticks))
		stepMS = append(stepMS, ticks...)
		simRate = append(simRate, float64(len(ticks))/s.rec.stepTime.Seconds())
		simP99 = append(simP99, quantile(ticks, 0.99))
		totals.add(&s.rec.phaseCounts)
		out := finishSteadySim(s, rep)
		if j < steadyDigested {
			outputs[j] = out
			dig.add(out)
			digestedStep += s.rec.stepTime
		}
	}
	elapsed := time.Since(start)
	gs.report(rep)
	rep.digest = dig.String()

	rep.metrics["setup_s"] = median(setups)
	rep.metrics["throughput_per_s"] = median(simRate)
	rep.metrics["latency_p50_ms"] = quantile(stepMS, 0.50)
	rep.metrics["latency_p99_ms"] = median(simP99)
	rep.metrics["visible_p50_ms"] = quantile(visibleMS, 0.50)
	rep.metrics["visible_p90_ms"] = quantile(visibleMS, 0.90)
	rep.note("tick_rate_per_s %.1f ticks/s: median over %d simulations of ticks per second of measured step time (%d ticks; %.1fs wall with set-ups)",
		rep.metrics["throughput_per_s"], len(simRate), len(stepMS), elapsed.Seconds())
	rep.note("tick_p50_us %.1f us (n=%d); tick_p99_us %.1f us: median of per-simulation p99s (n=%d each)",
		1e3*rep.metrics["latency_p50_ms"], len(stepMS), 1e3*rep.metrics["latency_p99_ms"], len(stepMS)/len(simP99))
	rep.note("tick_to_%s_visible p50 %.3f ms, p90 %.3f ms (n=%d)", steadyFastRP, rep.metrics["visible_p50_ms"], rep.metrics["visible_p90_ms"], len(visibleMS))
	rep.note("setup_s %.3f s (median of %d)", rep.metrics["setup_s"], len(setups))

	if !b.traced {
		return rep, nil
	}

	// Traced run: rerun the digested simulations untraced. Their series
	// must match the traced ones byte for byte, and their step time is
	// the base of the tracing overhead.
	var plainStep time.Duration
	for j := 0; j < steadyDigested; j++ {
		s, err := startSteadySim(b, j, false)
		if err != nil {
			return nil, err
		}
		var discard []float64
		s.runTicks(&discard, &discard)
		plainStep += s.rec.stepTime
		if out := finishSteadySim(s, rep); !bytes.Equal(out, outputs[j]) {
			rep.problem("sim %d: traced and untraced series differ", j)
		}
	}
	overhead := float64(digestedStep) / float64(plainStep)
	rep.metrics["trace.overhead_ratio"] = overhead
	totals.report(rep)
	if share := totals.residualShare(); share > max(0.05, overhead-1) {
		rep.problem("sim phases leave %.1f%% of step time unaccounted (overhead ratio %.3f)", 100*share, overhead)
	}
	rep.metrics["webworld.generate_ms"] = b.tr.meanMS("webworld.generate")
	rep.metrics["sim.new_ms"] = b.tr.meanMS("sim.new")
	rep.metrics["sim.first_probe_ms"] = b.tr.meanMS("sim.first_probe")
	rep.metrics["sim.seed_route_events"] = float64(routes)
	return rep, nil
}
