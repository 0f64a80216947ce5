package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"runtime"
	"time"

	"ripki/internal/sim"
	"ripki/internal/sweep"
	"ripki/internal/webworld"
)

// sweep-grid: every registered scenario × 2 replicates on 20k-domain
// worlds at the default 30 s tick and 30 m horizon, run with shared
// worlds (the CLI default) on one worker per CPU. Many short runs, so
// world cloning, sim.New's router seeding and the first probe dominate.
// cdn-migration, the only scenario that mutates DNS, is part of the
// grid.
const (
	sweepReplicates = 2
	sweepDomains    = 20000
	sweepSetups     = 3
)

func sweepGrid(seed int64) sweep.Grid {
	return sweep.Grid{
		Scenarios:  sim.Names(),
		MasterSeed: seed,
		Replicates: sweepReplicates,
		Domains:    []int{sweepDomains},
	}
}

func sweepTSV(res *sweep.Result, rep *report) [32]byte {
	var buf bytes.Buffer
	if err := res.WriteTSV(&buf); err != nil {
		rep.problem("writing sweep output: %v", err)
	}
	return sha256.Sum256(buf.Bytes())
}

func runSweepGrid(b *bench) (*report, error) {
	rep := newReport()
	ctx := context.Background()
	workers := runtime.NumCPU()

	// Set-up, several times: expand the plan and prepare each shared
	// world the way the sweep's world cache does (generate, validate,
	// snapshot). RunPlan repeats this work inside every pass.
	var plan *sweep.Plan
	var setups []float64
	for i := 0; i < sweepSetups; i++ {
		t0 := time.Now()
		p, err := sweepGrid(b.seed).Plan()
		if err != nil {
			return nil, err
		}
		for _, seed := range p.Seeds {
			w, err := webworld.Generate(webworld.Config{Seed: seed, Domains: sweepDomains})
			if err != nil {
				return nil, err
			}
			w.Validation()
			w.Snapshot()
		}
		setups = append(setups, time.Since(t0).Seconds())
		plan = p
	}
	rep.metrics["setup_s"] = median(setups)

	if b.traced {
		return traceSweepGrid(b, rep, plan, workers)
	}

	// Measure: whole passes over the plan until the time is up. Every
	// pass must produce the same bytes.
	gs := startGoStats()
	var passMS, firstMS []float64
	var wall time.Duration
	runs := 0
	var digest [32]byte
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < b.seconds; pass++ {
		var first time.Time
		t0 := time.Now()
		res, err := sweep.RunPlan(ctx, plan, sweep.Options{
			Workers:     workers,
			ShareWorlds: true,
			Progress: func(done, _ int, _ *sweep.RunResult) {
				if done == 1 {
					first = time.Now()
				}
			},
		})
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		wall += t1.Sub(t0)
		passMS = append(passMS, ms(t1.Sub(t0)))
		firstMS = append(firstMS, ms(first.Sub(t0)))
		runs += len(res.Runs)
		checkSweepRuns(res, rep)
		sum := sweepTSV(res, rep)
		if pass == 0 {
			digest = sum
		} else if sum != digest {
			rep.problem("pass %d output differs from pass 0", pass)
		}
	}
	gs.report(rep)
	rep.digest = hexPrefix(digest)

	rep.metrics["throughput_per_s"] = float64(runs) / wall.Seconds()
	rep.metrics["latency_p50_ms"] = quantile(passMS, 0.50)
	rep.metrics["latency_p99_ms"] = quantile(passMS, 0.99)
	rep.metrics["visible_p50_ms"] = quantile(firstMS, 0.50)
	rep.metrics["visible_p90_ms"] = quantile(firstMS, 0.90)
	rep.note("sweep_runs_per_s %.2f runs/s (%d runs, %d passes of %d runs, %d workers)", rep.metrics["throughput_per_s"], runs, len(passMS), len(plan.Specs), workers)
	rep.note("sweep_pass p50 %.1f ms, p99 %.1f ms; first result p50 %.1f ms, p90 %.1f ms (n=%d)",
		rep.metrics["latency_p50_ms"], rep.metrics["latency_p99_ms"], rep.metrics["visible_p50_ms"], rep.metrics["visible_p90_ms"], len(passMS))
	rep.note("setup_s %.3f s (median of %d)", rep.metrics["setup_s"], len(setups))
	return rep, nil
}

// checkSweepRuns counts the runs of one pass and fails any with an error.
func checkSweepRuns(res *sweep.Result, rep *report) {
	for _, rr := range res.Runs {
		rep.attempted++
		if rr.Err != "" {
			rep.failed++
			rep.problem("run %d (%s seed %d): %s", rr.Spec.Index, rr.Spec.Config.Scenario, rr.Spec.Config.Seed, rr.Err)
		}
	}
}

// traceSweepGrid is the traced run: one pass through RunPlan with the
// pool's completion callback stamped, one untraced single-worker pass as
// the overhead base, and a single-worker replay of the plan through the
// public layers, timed call by call. The replay must reproduce RunPlan's
// series byte for byte.
func traceSweepGrid(b *bench, rep *report, plan *sweep.Plan, workers int) (*report, error) {
	ctx := context.Background()
	tr := b.tr
	gs := startGoStats()

	var last time.Time
	t0 := time.Now()
	pass := tr.open("sweep.pass", t0, -1, -1)
	res, err := sweep.RunPlan(ctx, plan, sweep.Options{
		Workers:     workers,
		ShareWorlds: true,
		Progress: func(_, _ int, rr *sweep.RunResult) {
			last = time.Now()
			tr.add("sweep.run_done", last, last, pass, rr.Spec.Index)
		},
	})
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	tr.close(pass, t1)
	// The pool calls Progress as each run completes; what follows the
	// last call is aggregation.
	tr.add("sweep.aggregate", last, t1, pass, -1)
	checkSweepRuns(res, rep)
	rep.digest = hexPrefix(sweepTSV(res, rep))

	u0 := time.Now()
	if _, err := sweep.RunPlan(ctx, plan, sweep.Options{Workers: 1, ShareWorlds: true}); err != nil {
		return nil, err
	}
	plain := time.Since(u0)

	r0 := time.Now()
	totals, err := replayPlan(b, plan, res, rep)
	if err != nil {
		return nil, err
	}
	replay := time.Since(r0)
	gs.report(rep)

	rep.metrics["trace.overhead_ratio"] = float64(replay) / float64(plain)
	totals.report(rep)
	rep.metrics["sweep.aggregate_ms"] = tr.meanMS("sweep.aggregate")
	rep.metrics["sweep.run_ms"] = tr.meanMS("sweep.run")
	rep.metrics["webworld.generate_ms"] = tr.meanMS("webworld.generate")
	rep.metrics["webworld.clone_ms"] = tr.meanMS("webworld.clone")
	rep.metrics["sim.new_ms"] = tr.meanMS("sim.new")
	rep.metrics["sim.first_probe_ms"] = tr.meanMS("sim.first_probe")
	rep.note("replay %.0f ms vs untraced single-worker pass %.0f ms; traced pass %.0f ms with %d workers",
		ms(replay), ms(plain), ms(t1.Sub(t0)), workers)
	return rep, nil
}

// replayPlan runs every spec of the plan in order on one goroutine, the
// way a single sweep worker with shared worlds does, with spans around
// each layer call, and compares each run with RunPlan's result.
func replayPlan(b *bench, plan *sweep.Plan, ref *sweep.Result, rep *report) (*phaseCounts, error) {
	tr := b.tr
	snaps := make(map[int64]*webworld.Snapshot)
	routes := make(map[int64]int)
	var totals phaseCounts
	var seeded float64
	for i := range plan.Specs {
		spec := &plan.Specs[i]
		seed := spec.Config.Seed
		run := tr.open("sweep.run", time.Now(), -1, i)
		snap := snaps[seed]
		if snap == nil {
			t0 := time.Now()
			w, err := webworld.Generate(webworld.Config{Seed: seed, Domains: spec.Config.Domains})
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			w.Validation()
			snap = w.Snapshot()
			tr.add("webworld.generate", t0, t1, run, i)
			tr.add("webworld.snapshot", t1, time.Now(), run, i)
			snaps[seed] = snap
			routes[seed] = countRoutes(w)
		}
		t0 := time.Now()
		cfg := spec.Config
		cfg.World = snap.Clone()
		t1 := time.Now()
		sm, err := sim.New(cfg)
		t2 := time.Now()
		tr.add("webworld.clone", t0, t1, run, i)
		tr.add("sim.new", t1, t2, run, i)
		var got string
		var series []byte
		if err != nil {
			got = err.Error()
		} else {
			seeded += float64(routes[seed] * len(sm.RPs))
			rec := &phaseRecorder{tr: tr, trace: i, parent: run}
			rec.attach(sm)
			ok := sm.Step()
			t3 := time.Now()
			tr.add("sim.first_probe", t2, t3, run, i)
			for ok {
				rec.begin(time.Now())
				ok = sm.Step()
				rec.end(time.Now())
			}
			totals.add(&rec.phaseCounts)
			if err := sm.Err(); err != nil {
				got = err.Error()
			} else {
				var buf bytes.Buffer
				if err := sm.Series.WriteTSV(&buf); err != nil {
					return nil, err
				}
				series = buf.Bytes()
			}
			c0 := time.Now()
			sm.Close()
			tr.add("sim.close", c0, time.Now(), run, i)
		}
		tr.close(run, time.Now())

		want := ref.Runs[i]
		var wantSeries []byte
		if want.Series != nil {
			var buf bytes.Buffer
			if err := want.Series.WriteTSV(&buf); err != nil {
				return nil, err
			}
			wantSeries = buf.Bytes()
		}
		if got != want.Err || !bytes.Equal(series, wantSeries) {
			rep.problem("replay of run %d (%s) differs from RunPlan", i, spec.Config.Scenario)
		}
	}
	rep.metrics["sim.seed_route_events"] = seeded / float64(len(plan.Specs))
	return &totals, nil
}
