package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sync"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/live"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sweep"
)

// unitSeeds returns the policy seeds of the i-th unit of work of a run with
// the given workload seed (k seeds per unit). Unit -1 is the warm-up.
func unitSeeds(seed int64, i, k int) []int64 {
	out := make([]int64, k)
	for j := range out {
		out[j] = seed*1_000_003 + int64((i+1)*k+j) + 1
	}
	return out
}

// parallel runs the jobs on at most GOMAXPROCS goroutines; the cells of one
// job run in order on one goroutine, which fn learns as its worker index.
func parallel(jobs [][]int, fn func(worker, cell int)) {
	workers := min(runtime.GOMAXPROCS(0), len(jobs))
	ch := make(chan []int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for job := range ch {
				for _, c := range job {
					fn(w, c)
				}
			}
		}(w)
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
}

// singletons makes one job per cell.
func singletons(n int) [][]int {
	jobs := make([][]int, n)
	for i := range jobs {
		jobs[i] = []int{i}
	}
	return jobs
}

// gridUnit is one timed sweep.Grid call and its outputs.
type gridUnit struct {
	grid    sweep.Grid
	results []sweep.Result
	err     error
}

// runGrid runs one grid through the public sweep path — RunWithEngines,
// then Summarize and the table writer, as `zigzag-sim -sweep` does — with a
// span around each call when tb is set.
func runGrid(g sweep.Grid, tb *spanBuf) gridUnit {
	tb.begin("sweep.grid")
	res, _, err := g.RunWithEngines()
	tb.end()
	if err == nil {
		tb.begin("sweep.aggregate")
		err = sweep.Write(io.Discard, "table", sweep.Summarize(res))
		tb.end()
	}
	return gridUnit{grid: g, results: res, err: err}
}

// decodeCell maps a grid cell index to its scenario, policy and seed, in
// sweep.Grid's enumeration order (sim cells, then live cells; each
// scenario-major, then policy, then seed).
func decodeCell(g sweep.Grid, i int) (*scenario.Scenario, sweep.PolicySpec, int64) {
	nSeeds, nPols := len(g.Seeds), len(g.Policies)
	scIdx := i / (nPols * nSeeds)
	spec, seed := g.Policies[(i/nSeeds)%nPols], g.Seeds[i%nSeeds]
	if scIdx >= len(g.Scenarios) {
		return g.Live[scIdx-len(g.Scenarios)], spec, seed
	}
	return g.Scenarios[scIdx], spec, seed
}

// gridCounts tallies the typed outcomes and cell errors of timed grids.
func gridCounts(units []gridUnit, lm map[string]float64) {
	cells, grids := 0, 0
	var errs, viol, degr, crash int
	for _, u := range units {
		grids++
		cells += u.grid.Size()
		for _, r := range u.results {
			if r.Err != nil {
				errs++
			}
			viol += r.Violations
			degr += r.Degraded
			crash += r.Crashed
		}
	}
	if cells == 0 {
		return
	}
	lm["sweep.cells"] = float64(cells) / float64(grids)
	lm["sweep.cell_errs"] = float64(errs) / float64(cells)
	lm["faults.violations"] = float64(viol) / float64(cells)
	lm["faults.degraded"] = float64(degr) / float64(cells)
	lm["faults.crashed"] = float64(crash) / float64(cells)
}

// gridInputs digests the scenarios and policy seeds of a run's first grid;
// later grids derive their seeds from the same workload seed.
func gridInputs(units []gridUnit) string {
	if len(units) == 0 {
		return ""
	}
	g := units[0].grid
	h := fnv.New64a()
	for _, sc := range append(append([]*scenario.Scenario(nil), g.Scenarios...), g.Live...) {
		fmt.Fprintf(h, "%s:%x;", sc.Name, sc.Net.Fingerprint())
	}
	fmt.Fprint(h, g.Seeds)
	return fmt.Sprintf("%016x", h.Sum64())
}

// sweepLive is the sweep-live workload: replay-mode live grids over the
// coordination families and the chaos cells, one policy seed per grid.
type sweepLive struct {
	seed  int64
	sz    size
	plant bool // tests only: corrupt one checked output, which the check must catch

	scs   []*scenario.Scenario
	pols  []sweep.PolicySpec
	units []gridUnit

	decideUS   []float64 // decision latencies of the sample cells, µs
	sampled    int       // sample-cell executions
	sampleErrs []string  // sample-cell executions that failed

	tracedOps        int
	counts           map[string]float64 // traced-phase counter totals
	probedDeliveries int                // deliveries absorbed by the probes
}

// sampleMaxM bounds the agent count of the cells whose decisions are timed
// after every grid.
const sampleMaxM = 8

// oracleMaxM bounds the task count of the live cells checked against the
// offline oracle: coord.Task.RunOptimal rebuilds the bounds graph at every
// state of every task, which grows too slow to run on m=16 cells per run.
const oracleMaxM = 4

func newSweepLive(seed int64, sz size) bench { return &sweepLive{seed: seed, sz: sz} }

func (w *sweepLive) setup() error {
	w.scs = nil
	if w.sz == tinySize {
		w.scs = append(w.scs, scenario.MultiAgent(2), scenario.MultiAgentEarly(2), scenario.MultiAgentFaulty(2, "chaos"))
	} else {
		for _, m := range []int{4, 8, 16} {
			w.scs = append(w.scs, scenario.MultiAgent(m), scenario.MultiAgentEarly(m))
		}
		w.scs = append(w.scs, scenario.FaultyFamily()...)
	}
	w.pols = sweep.DefaultPolicies()
	w.units, w.decideUS, w.sampled, w.sampleErrs = nil, nil, 0, nil
	w.tracedOps, w.counts, w.probedDeliveries = 0, make(map[string]float64), 0
	// Warm up on the smallest coordination scenario and one chaos scenario.
	warm := runGrid(w.grid([]*scenario.Scenario{w.scs[0], w.scs[len(w.scs)-1]}, -1), nil)
	if warm.err != nil {
		return warm.err
	}
	for _, r := range warm.results {
		if r.Err != nil {
			return fmt.Errorf("warm-up cell %s/%s: %w", r.Scenario, r.Policy, r.Err)
		}
	}
	return nil
}

func (w *sweepLive) grid(scs []*scenario.Scenario, i int) sweep.Grid {
	return sweep.Grid{Live: scs, LiveMode: sweep.ModeReplay, Policies: w.pols,
		Seeds: unitSeeds(w.seed, i, 1), Workers: runtime.GOMAXPROCS(0)}
}

func (w *sweepLive) iter(i int, m *meter, tb *spanBuf) {
	var u gridUnit
	m.timed(func() int {
		u = runGrid(w.grid(w.scs, i), tb)
		return u.grid.Size()
	})
	w.units = append(w.units, u)
	w.sampleDecisions()
}

// sampleDecisions re-drives, untimed, the eager and lazy cells of the
// fault-free scenarios with at most sampleMaxM agents through the
// benchmark's own loop with timed agents, on fresh network engines. Those
// cells do not depend on the seed, so every call times the same decisions,
// and calling it after every grid spreads the samples over the whole run.
func (w *sweepLive) sampleDecisions() {
	var scs []*scenario.Scenario
	for _, sc := range w.scs {
		if sc.FaultFamily == "" && len(sc.TaskList()) <= sampleMaxM {
			scs = append(scs, sc)
		}
	}
	g := w.grid(scs, 0)
	engines := networkEngines(g, nil)
	memo := &fpMemo{m: make(map[[2]string]uint64)}
	for c := 0; c < g.Size(); c++ {
		sc, spec, seed := decodeCell(g, c)
		if !spec.Deterministic {
			continue
		}
		w.sampled++
		if _, err := runLiveCell(sc, spec, seed, engines[sc.Net.Fingerprint()], memo, &w.decideUS, nil); err != nil {
			w.sampleErrs = append(w.sampleErrs, fmt.Sprintf("sample cell %s/%s: %v", sc.Name, spec.Name, err))
		}
	}
}

func (w *sweepLive) inputs() string { return gridInputs(w.units) }

// check fails every errored cell, then re-drives every cell of the first
// grid through the benchmark's own loop: the run shape, acts and typed
// fault outcomes must equal the grid's row; on fault-free cells with at
// most oracleMaxM tasks every agent's act must equal coord.Task.RunOptimal
// on the recording; on faulted cells every act must pass
// coord.Task.AuditAct. It also reports the decision latencies
// sampleDecisions timed.
func (w *sweepLive) check() checkResult {
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
	engines := make(map[uint64]*bounds.NetworkEngine)
	for _, sc := range u.grid.Live {
		if fp := sc.Net.Fingerprint(); engines[fp] == nil {
			engines[fp] = bounds.NewNetworkEngine(sc.Net)
		}
	}
	memo := &fpMemo{m: make(map[[2]string]uint64)}
	verdicts := make([]string, u.grid.Size())
	parallel(singletons(u.grid.Size()), func(_, i int) {
		if u.results[i].Err != nil {
			return
		}
		sc, spec, seed := decodeCell(u.grid, i)
		var discard []float64
		co, err := runLiveCell(sc, spec, seed, engines[sc.Net.Fingerprint()], memo, &discard, nil)
		if err != nil {
			verdicts[i] = err.Error()
			return
		}
		verdicts[i] = liveMismatch(u.results[i], sc, co)
	})
	for i, v := range verdicts {
		if v != "" {
			sc, spec, _ := decodeCell(u.grid, i)
			c.failures = append(c.failures, fmt.Sprintf("grid 0 cell %d %s/%s: %s", i, sc.Name, spec.Name, v))
		}
	}
	return c
}

// liveMismatch compares a grid row with the benchmark's own execution of the
// same cell and with the offline oracle; "" means they agree.
func liveMismatch(res sweep.Result, sc *scenario.Scenario, co liveCellOut) string {
	row := func(r sweep.Result) string {
		return fmt.Sprint(r.Nodes, r.Deliveries, r.AgentsActed, r.ActTime, r.Degraded, r.Crashed, r.Violations)
	}
	got, want := row(liveResult(sc, res.Policy, res.Seed, co, nil)), row(res)
	if got != want {
		return fmt.Sprintf("grid row (nodes deliveries acted act-time degraded crashed violations) %s, own execution %s", want, got)
	}
	out := co.out
	tasks := sc.TaskList()
	times := actTimes(out, len(tasks))
	if sc.FaultFamily != "" {
		for i, t := range times {
			if t < 0 {
				continue
			}
			if err := tasks[i].AuditAct(out.Run, model.Time(t)); err != nil {
				return fmt.Sprintf("agent %s: %v", live.TaskLabel(i), err)
			}
		}
		return ""
	}
	if len(tasks) > oracleMaxM {
		return ""
	}
	for i, t := range tasks {
		o, err := t.RunOptimal(out.Run)
		if err != nil {
			return fmt.Sprintf("oracle for agent %s: %v", live.TaskLabel(i), err)
		}
		want := -1
		if o.Acted {
			want = int(o.ActTime)
		}
		if times[i] != want {
			return fmt.Sprintf("agent %s acted at %d, RunOptimal at %d", live.TaskLabel(i), times[i], want)
		}
	}
	return ""
}

// liveJobs carves a live grid into jobs as sweep.Grid does: the
// deterministic fault-free cells of one network form one sequential job, so
// standing-prefix hits and misses come out the same; every other cell is a
// job of its own.
func liveJobs(g sweep.Grid) [][]int {
	var jobs [][]int
	block := make(map[uint64]int)
	for c := 0; c < g.Size(); c++ {
		sc, spec, _ := decodeCell(g, c)
		if !spec.Deterministic || sc.FaultFamily != "" {
			jobs = append(jobs, []int{c})
			continue
		}
		fp := sc.Net.Fingerprint()
		if j, ok := block[fp]; ok {
			jobs[j] = append(jobs[j], c)
		} else {
			block[fp] = len(jobs)
			jobs = append(jobs, []int{c})
		}
	}
	return jobs
}

// networkEngines builds one network engine per distinct topology of g,
// recording a span per build.
func networkEngines(g sweep.Grid, tb *spanBuf) map[uint64]*bounds.NetworkEngine {
	engines := make(map[uint64]*bounds.NetworkEngine)
	for _, sc := range g.Live {
		if fp := sc.Net.Fingerprint(); engines[fp] == nil {
			tb.begin("bounds.network_engine")
			engines[fp] = bounds.NewNetworkEngine(sc.Net)
			tb.end()
		}
	}
	return engines
}

// workerBufs returns one span buffer per worker goroutine.
func workerBufs(tr *tracer) []*spanBuf {
	bufs := make([]*spanBuf, runtime.GOMAXPROCS(0))
	for k := range bufs {
		bufs[k] = tr.buf()
	}
	return bufs
}

// traced drives the i-th grid's cells through the benchmark's own loop —
// network engines, the cells as sweep.Grid carves them into jobs, then the
// aggregation — keeping only counters of each cell's outputs.
func (w *sweepLive) traced(i int, m *meter, tr *tracer) {
	g := w.grid(w.scs, i)
	n := g.Size()
	jobs := liveJobs(g)
	main, bufs := tr.buf(), workerBufs(tr)
	var engines map[uint64]*bounds.NetworkEngine
	results := make([]sweep.Result, n)
	simDeliv := make([]int, n)
	m.timed(func() int {
		engines = networkEngines(g, main)
		memo := &fpMemo{m: make(map[[2]string]uint64)}
		parallel(jobs, func(wk, c int) {
			b := bufs[wk]
			b.setOp(w.tracedOps + c)
			b.begin("bench.cell")
			sc, spec, seed := decodeCell(g, c)
			var samples []float64
			co, err := runLiveCell(sc, spec, seed, engines[sc.Net.Fingerprint()], memo, &samples, b)
			results[c], simDeliv[c] = liveResult(sc, spec.Name, seed, co, err), co.simDeliv
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
	for c, r := range results {
		w.counts["sim.deliveries"] += float64(simDeliv[c])
		w.counts["live.replay_batches"] += float64(r.ReplayBatches)
		w.counts["live.replay_chunks"] += float64(r.ReplayChunks)
		w.counts["rev.relaxations"] += float64(r.Rev.RevRelaxations)
		w.counts["rev.hits"] += float64(r.Rev.RevHits)
		w.counts["rev.rebuilds"] += float64(r.Rev.RevRebuilds)
	}
	for _, eng := range engines {
		st := eng.Stats()
		w.counts["relaxations"] += float64(st.Relaxations)
		w.counts["prefix.hits"] += float64(st.PrefixHits)
		w.counts["prefix.misses"] += float64(st.PrefixMisses)
		w.counts["clone.bytes"] += float64(st.CloneBytes)
	}
	w.tracedOps += n
}

// liveResult fills the sweep row of a cell the benchmark ran itself, for
// the aggregation step.
func liveResult(sc *scenario.Scenario, pol string, seed int64, co liveCellOut, err error) sweep.Result {
	res := sweep.Result{Scenario: sc.Name, Policy: pol, Seed: seed, Mode: sweep.ModeReplay, Err: err}
	if err != nil {
		return res
	}
	out := co.out
	res.Nodes = out.Run.NumNodes()
	res.Deliveries = len(out.Run.Deliveries())
	res.Pending = len(out.Run.PendingMessages())
	res.Agents = len(co.agents)
	res.AgentsActed = len(out.Actions)
	if len(out.Actions) > 0 {
		res.ActTime = int(out.Actions[0].Time)
	}
	res.Prefix = co.prefix
	res.ReplayBatches, res.ReplayChunks = out.ReplayBatches, out.ReplayChunks
	res.Degraded, res.Crashed, res.Violations = len(out.Degraded), len(out.Crashed), len(out.Violations)
	for _, a := range co.agents {
		res.Rev.Add(a.HandleStats())
	}
	return res
}

// probe re-runs the first grid's cells, untimed, and re-drives each
// recording through the layer probes at once, with each agent's engine a
// handle on a fresh per-run engine of the network.
func (w *sweepLive) probe(tr *tracer) (int, error) {
	g := w.grid(w.scs, 0)
	engines := networkEngines(g, nil)
	memo := &fpMemo{m: make(map[[2]string]uint64)}
	bufs := workerBufs(tr)
	errs := make([]error, g.Size())
	deliveries := make([]int, g.Size())
	parallel(liveJobs(g), func(wk, c int) {
		sc, spec, seed := decodeCell(g, c)
		eng := engines[sc.Net.Fingerprint()]
		var samples []float64
		co, err := runLiveCell(sc, spec, seed, eng, memo, &samples, nil)
		if err != nil {
			errs[c] = err
			return
		}
		shared := eng.NewRun()
		b := bufs[wk]
		b.setOp(c)
		b.begin("probe.cell")
		pc, err := probeRun(co.out.Run, sc.TaskList(), co.decided, func(v *run.View) (querier, error) {
			return shared.NewHandle(v)
		}, b)
		b.end()
		errs[c], deliveries[c] = err, pc
	})
	for _, b := range bufs {
		b.flush()
	}
	for c, err := range errs {
		if err != nil {
			sc, spec, _ := decodeCell(g, c)
			return 0, fmt.Errorf("probe of %s/%s: %w", sc.Name, spec.Name, err)
		}
		w.probedDeliveries += deliveries[c]
	}
	return g.Size(), nil
}

func (w *sweepLive) layerCounts(probed int) map[string]float64 {
	lm := make(map[string]float64)
	gridCounts(w.units, lm)
	if w.tracedOps == 0 {
		return lm
	}
	ops := float64(w.tracedOps)
	for k, v := range map[string]string{
		"sim.deliveries": "sim.deliveries", "live.replay_batches": "live.replay_batches",
		"live.replay_chunks": "live.replay_chunks", "bounds.relaxations": "relaxations",
		"bounds.rev_relaxations": "rev.relaxations", "bounds.prefix_hits": "prefix.hits",
		"bounds.prefix_misses": "prefix.misses",
	} {
		lm[k] = w.counts[v] / ops
	}
	lm["bounds.clone_mb"] = w.counts["clone.bytes"] / 1e6 / ops
	lm["bounds.rev_warm_ratio"] = ratio(w.counts["rev.hits"], w.counts["rev.rebuilds"])
	lm["bounds.prefix_hit_ratio"] = ratio(w.counts["prefix.hits"], w.counts["prefix.misses"])
	if probed > 0 {
		lm["run.deliveries_added"] = float64(w.probedDeliveries) / float64(probed)
	}
	return lm
}

// ratio returns hits / (hits + misses), 0 when both are 0.
func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}
