package main

import (
	"fmt"
	"io"
	"runtime"

	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/sweep"
)

// sweepOffline is the sweep-offline workload: sim-mode grids over the
// scenario registry (coordination families up to m=8), two policy seeds per
// grid.
type sweepOffline struct {
	seed  int64
	sz    size
	plant bool // tests only: corrupt one checked output, which the check must catch

	scs   []*scenario.Scenario
	pols  []sweep.PolicySpec
	units []gridUnit

	decideUS   []float64 // decision latencies of the sample cells, µs
	sampled    int       // sample-cell executions
	sampleErrs []string  // sample cells that failed

	tracedOps int
	simDeliv  int
}

func newSweepOffline(seed int64, sz size) bench { return &sweepOffline{seed: seed, sz: sz} }

// seedsPerGrid is how many policy seeds one sweep-offline grid covers.
func (w *sweepOffline) seedsPerGrid() int {
	if w.sz == tinySize {
		return 1
	}
	return 2
}

func (w *sweepOffline) setup() error {
	w.scs = scenario.All(scenario.RegistrySized(0, 8))
	if w.sz == tinySize {
		reg := scenario.RegistrySized(0, 2)
		w.scs = []*scenario.Scenario{reg["figure1"], reg["figure2b"], reg["trains"], reg["coord-m2"], reg["random-n6-e6-s1"]}
	}
	w.pols = sweep.DefaultPolicies()
	w.units, w.decideUS, w.sampled, w.sampleErrs = nil, nil, 0, nil
	w.tracedOps, w.simDeliv = 0, 0
	// Warm up on one grid of every scenario under one seed.
	g := w.grid(w.scs, -1)
	g.Seeds = g.Seeds[:1]
	u := runGrid(g, nil)
	if u.err != nil {
		return u.err
	}
	for _, r := range u.results {
		if r.Err != nil {
			return fmt.Errorf("warm-up cell %s/%s: %w", r.Scenario, r.Policy, r.Err)
		}
	}
	return nil
}

func (w *sweepOffline) grid(scs []*scenario.Scenario, i int) sweep.Grid {
	return sweep.Grid{Scenarios: scs, Policies: w.pols,
		Seeds: unitSeeds(w.seed, i, w.seedsPerGrid()), Workers: runtime.GOMAXPROCS(0)}
}

func (w *sweepOffline) iter(i int, m *meter, tb *spanBuf) {
	var u gridUnit
	m.timed(func() int {
		u = runGrid(w.grid(w.scs, i), tb)
		return u.grid.Size()
	})
	w.units = append(w.units, u)
	w.sampleDecisions()
}

// offlineSampleMaxM bounds the agent count of the coordination scenarios
// whose offline decisions are timed after every grid: the m=8 scans take
// about half a second per grid.
const offlineSampleMaxM = 4

// sampleDecisions re-simulates, untimed, the eager and lazy cells of the
// task scenarios with at most offlineSampleMaxM agents and times each state
// of the offline Protocol 2 scan (offlineDecide). Those cells do not depend
// on the seed, so every call times the same decisions, and calling it after
// every grid spreads the samples over the whole run.
func (w *sweepOffline) sampleDecisions() {
	for _, sc := range w.scs {
		if sc.Task == nil || len(sc.TaskList()) > offlineSampleMaxM {
			continue
		}
		for _, spec := range w.pols {
			if !spec.Deterministic {
				continue
			}
			w.sampled++
			r, err := sc.Simulate(spec.New(0))
			if err == nil {
				_, _, _, err = offlineDecide(*sc.Task, r, &w.decideUS, nil)
			}
			if err != nil {
				w.sampleErrs = append(w.sampleErrs, fmt.Sprintf("sample cell %s/%s: %v", sc.Name, spec.Name, err))
			}
		}
	}
}

func (w *sweepOffline) inputs() string { return gridInputs(w.units) }

// check fails every errored cell, then re-simulates every cell of the first
// grid: the run shape must equal the grid's row and, on
// cells posing a task, the benchmark's own scan of the offline Protocol 2
// (offlineDecide) must act at the grid's act time with the grid's known
// bound. It also reports the decision latencies sampleDecisions timed.
func (w *sweepOffline) check() checkResult {
	c := checkResult{attempted: w.sampled, decideUS: w.decideUS, failures: w.sampleErrs}
	for ui, u := range w.units {
		c.attempted += u.grid.Size()
		if u.err != nil {
			for i := 0; i < u.grid.Size(); i++ {
				c.failures = append(c.failures, fmt.Sprintf("grid %d cell %d: %v", ui, i, u.err))
			}
			continue
		}
		for i, r := range u.results {
			if r.Err != nil {
				c.failures = append(c.failures, fmt.Sprintf("grid %d cell %d %s/%s: %v", ui, i, r.Scenario, r.Policy, r.Err))
			}
		}
	}
	if len(w.units) == 0 || w.units[0].err != nil {
		return c
	}
	u := w.units[0]
	if w.plant {
		u.results = append([]sweep.Result(nil), u.results...)
		u.results[0].Nodes++
	}
	verdicts := make([]string, u.grid.Size())
	parallel(singletons(u.grid.Size()), func(_, i int) {
		if u.results[i].Err != nil {
			return
		}
		sc, spec, _ := decodeCell(u.grid, i)
		var discard []float64
		verdicts[i] = offlineMismatch(u.results[i], sc, spec.New(u.results[i].Seed), &discard)
	})
	for i, v := range verdicts {
		if v != "" {
			sc, spec, _ := decodeCell(u.grid, i)
			c.failures = append(c.failures, fmt.Sprintf("grid 0 cell %d %s/%s: %s", i, sc.Name, spec.Name, v))
		}
	}
	return c
}

// offlineMismatch re-simulates one sim cell and compares it with its grid
// row; "" means they agree.
func offlineMismatch(res sweep.Result, sc *scenario.Scenario, pol sim.Policy, samples *[]float64) string {
	r, err := sc.Simulate(pol)
	if err != nil {
		return err.Error()
	}
	if r.NumNodes() != res.Nodes || len(r.Deliveries()) != res.Deliveries {
		return fmt.Sprintf("grid row has %d nodes / %d deliveries, the simulation %d / %d",
			res.Nodes, res.Deliveries, r.NumNodes(), len(r.Deliveries()))
	}
	if sc.Task == nil {
		return ""
	}
	acted, node, kw, err := offlineDecide(*sc.Task, r, samples, nil)
	if err != nil {
		return err.Error()
	}
	if acted != res.Acted {
		return fmt.Sprintf("grid row acted=%v, offline scan acted=%v", res.Acted, acted)
	}
	if acted && (int(r.MustTime(node)) != res.ActTime || kw != res.KnownBound) {
		return fmt.Sprintf("grid row acts at %d knowing %d, offline scan at %d knowing %d",
			res.ActTime, res.KnownBound, r.MustTime(node), kw)
	}
	return ""
}

// traced runs the i-th grid's cells through the benchmark's own loop —
// simulate, then coord.Task.RunOptimal on cells posing a task — then the
// aggregation.
func (w *sweepOffline) traced(i int, m *meter, tr *tracer) {
	g := w.grid(w.scs, i)
	n := g.Size()
	main, bufs := tr.buf(), workerBufs(tr)
	results := make([]sweep.Result, n)
	m.timed(func() int {
		parallel(singletons(n), func(wk, c int) {
			b := bufs[wk]
			b.setOp(w.tracedOps + c)
			b.begin("bench.cell")
			results[c] = simCell(g, c, b)
			b.end()
		})
		main.begin("sweep.aggregate")
		if err := sweep.Write(io.Discard, "table", sweep.Summarize(results)); err != nil {
			panic(err) // writing to io.Discard cannot fail
		}
		main.end()
		return n
	})
	for _, b := range append(bufs, main) {
		b.flush()
	}
	for _, r := range results {
		w.simDeliv += r.Deliveries
	}
	w.tracedOps += n
}

// simCell runs the c-th cell of a sim grid as sweep.Grid does, with spans
// around the simulation and the offline protocol.
func simCell(g sweep.Grid, c int, tb *spanBuf) sweep.Result {
	sc, spec, seed := decodeCell(g, c)
	res := sweep.Result{Scenario: sc.Name, Policy: spec.Name, Seed: seed, Mode: sweep.ModeSim}
	tb.begin("sim.record")
	r, err := sc.Simulate(spec.New(seed))
	tb.end()
	if err != nil {
		res.Err = err
		return res
	}
	res.Nodes, res.Deliveries, res.Pending = r.NumNodes(), len(r.Deliveries()), len(r.PendingMessages())
	if sc.Task == nil {
		return res
	}
	res.HasTask = true
	tb.begin("coord.run_optimal")
	out, err := sc.Task.RunOptimal(r)
	tb.end()
	if err != nil {
		res.Err = err
	} else if out.Acted {
		res.Acted, res.ActTime, res.Gap, res.KnownBound = true, int(out.ActTime), out.Gap, out.KnownBound
	}
	return res
}

// probe re-simulates the first grid's task cells, untimed, and re-runs the
// offline Protocol 2 scan on each with its layers traced.
func (w *sweepOffline) probe(tr *tracer) (int, error) {
	g := w.grid(w.scs, 0)
	bufs := workerBufs(tr)
	errs := make([]error, g.Size())
	parallel(singletons(g.Size()), func(wk, c int) {
		sc, spec, seed := decodeCell(g, c)
		if sc.Task == nil {
			return
		}
		r, err := sc.Simulate(spec.New(seed))
		if err != nil {
			errs[c] = err
			return
		}
		b := bufs[wk]
		b.setOp(c)
		b.begin("probe.cell")
		var discard []float64
		_, _, _, errs[c] = offlineDecide(*sc.Task, r, &discard, b)
		b.end()
	})
	for _, b := range bufs {
		b.flush()
	}
	for c, err := range errs {
		if err != nil {
			sc, spec, _ := decodeCell(g, c)
			return 0, fmt.Errorf("probe of %s/%s: %w", sc.Name, spec.Name, err)
		}
	}
	return g.Size(), nil
}

func (w *sweepOffline) layerCounts(int) map[string]float64 {
	lm := make(map[string]float64)
	gridCounts(w.units, lm)
	if w.tracedOps > 0 {
		lm["sim.deliveries"] = float64(w.simDeliv) / float64(w.tracedOps)
	}
	return lm
}
