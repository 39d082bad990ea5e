package main

import (
	"fmt"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/coord"
	"github.com/clockless/zigzag/internal/live"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/workload"
)

// execProbes is how many traced executions the layer probes re-drive.
const execProbes = 2

// execN32 is the exec-n32 workload: one live.Replay execution at a time of
// the standard n=32 scaling instance, with a Late and an Early Protocol2
// agent on their default private engine and a separation no run reaches,
// so both query at every state. The workload seed picks the policy seeds.
type execN32 struct {
	seed  int64
	sz    size
	plant bool // tests only: corrupt one checked output, which the check must catch

	in        *workload.Instance
	tasks     []coord.Task
	externals []run.ExternalEvent
	seeds     []int64   // policy seed of each timed execution
	verdicts  []string  // check verdict of each timed execution ("" = correct)
	samples   []float64 // decision latencies of the timed executions, µs

	tracedOps        int
	counts           map[string]float64
	probedDeliveries int // deliveries absorbed by the probes
}

// execOut is one execution and the policy seed it ran under.
type execOut struct {
	policySeed int64
	res        *live.Result
	agents     []*timedAgent
	err        error
}

// unreachableX is a separation no run of the instance reaches, so the
// agents never act and decide at every state.
const unreachableX = 1 << 20

func newExec(seed int64, sz size) bench { return &execN32{seed: seed, sz: sz} }

func (w *execN32) setup() error {
	n := 32
	if w.sz == tinySize {
		n = 6
	}
	// The standard scaling instance of the repository's benchmarks.
	cfg := workload.DefaultConfig(int64(n))
	cfg.Procs = n
	cfg.ExtraChannels = 2 * n
	in, err := workload.Generate(cfg)
	if err != nil {
		return err
	}
	a := in.Net.Arcs()[0]
	late := coord.Task{Kind: coord.Late, X: unreachableX, C: a.From, A: a.To, GoTime: 1}
	early := late
	early.Kind = coord.Early
	for _, p := range in.Net.Procs() {
		if p == a.From || p == a.To {
			continue
		}
		if late.B == 0 {
			late.B = p
		} else {
			early.B = p
			break
		}
	}
	w.in, w.tasks = in, []coord.Task{late, early}
	w.externals = sim.GoAt(late.C, late.GoTime, "go")
	w.seeds, w.verdicts, w.samples = nil, nil, nil
	w.tracedOps, w.counts, w.probedDeliveries = 0, make(map[string]float64), 0
	var warm []float64
	out := w.execute(w.tasks, unitSeeds(w.seed, -1, 1)[0], &warm, nil)
	return out.err
}

// execute runs one execution with one timed Protocol2 agent per task.
func (w *execN32) execute(tasks []coord.Task, policySeed int64, samples *[]float64, tb *spanBuf) execOut {
	return w.executeTo(w.in.Horizon, tasks, policySeed, samples, tb)
}

// executeTo is execute with the recording cut at horizon.
func (w *execN32) executeTo(horizon model.Time, tasks []coord.Task, policySeed int64, samples *[]float64, tb *spanBuf) execOut {
	agents, byProc := wrapAgents(tasks, samples, tb)
	tb.begin("live.replay")
	res, err := live.Replay(live.Config{
		Net: w.in.Net, Horizon: horizon, Policy: sim.NewRandom(policySeed),
		Externals: w.externals, Agents: byProc,
	})
	tb.end()
	return execOut{policySeed: policySeed, res: res, agents: agents, err: err}
}

// iter times one execution, then checks it outside the timed region and
// keeps only the verdict, so recordings do not pile up in the heap.
func (w *execN32) iter(i int, m *meter, _ *spanBuf) {
	seed := unitSeeds(w.seed, i, 1)[0]
	var o execOut
	m.timed(func() int {
		o = w.execute(w.tasks, seed, &w.samples, nil)
		return 1
	})
	w.seeds = append(w.seeds, seed)
	w.verdicts = append(w.verdicts, w.execMismatch(o, i == 0 && w.plant))
}

// inputs names the instance and the first execution's policy seed; later
// executions derive theirs from the same workload seed.
func (w *execN32) inputs() string {
	return fmt.Sprintf("n=%d net=%016x first-policy-seed=%d", w.in.Net.N(), w.in.Net.Fingerprint(), unitSeeds(w.seed, 0, 1)[0])
}

// simulate records the instance under the policy seed with the simulator.
func (w *execN32) simulate(policySeed int64) (*run.Run, error) {
	return sim.Simulate(sim.Config{Net: w.in.Net, Horizon: w.in.Horizon,
		Policy: sim.NewRandom(policySeed), Externals: w.externals})
}

// check reports the verdicts of the timed executions (execMismatch) and
// then runs one more execution with reachable separations, whose acts must
// equal coord.Task.RunOptimal on its recording. That execution is cut at a
// third of the horizon: the Early agent never acts on this instance, so
// RunOptimal rebuilds its bounds graph at every state of the recording,
// which takes about ten seconds at the full horizon on a 2-core host.
func (w *execN32) check() checkResult {
	c := checkResult{attempted: len(w.verdicts) + 1, decideUS: w.samples}
	for i, v := range w.verdicts {
		if v != "" {
			c.failures = append(c.failures, fmt.Sprintf("execution %d (policy seed %d): %s", i, w.seeds[i], v))
		}
	}
	tasks := append([]coord.Task(nil), w.tasks...)
	for i := range tasks {
		tasks[i].X = 1
	}
	var discard []float64
	o := w.executeTo(w.in.Horizon/3, tasks, unitSeeds(w.seed, -2, 1)[0], &discard, nil)
	if v := oracleMismatch(o, tasks); v != "" {
		c.failures = append(c.failures, fmt.Sprintf("oracle execution (policy seed %d): %s", o.policySeed, v))
	}
	return c
}

// execMismatch checks one timed execution — no error, no agent error, no
// act (the separation is unreachable) and a recording whose fingerprint
// equals sim.Simulate's for the same policy and seed; "" means it is
// correct.
func (w *execN32) execMismatch(o execOut, plant bool) string {
	if o.err != nil {
		return o.err.Error()
	}
	for i, a := range o.agents {
		if err := a.p.Err(); err != nil {
			return fmt.Sprintf("agent %s: %v", live.TaskLabel(i), err)
		}
	}
	if len(o.res.Actions) != 0 {
		return fmt.Sprintf("%d act(s) on an unreachable separation", len(o.res.Actions))
	}
	r, err := w.simulate(o.policySeed)
	if err != nil {
		return err.Error()
	}
	want := r.Fingerprint()
	if plant {
		want++
	}
	if got := o.res.Run.Fingerprint(); got != want {
		return fmt.Sprintf("recording fingerprint %#x, sim.Simulate %#x", got, want)
	}
	return ""
}

// oracleMismatch compares each agent's act with coord.Task.RunOptimal on
// the execution's recording; "" means they agree.
func oracleMismatch(o execOut, tasks []coord.Task) string {
	if o.err != nil {
		return o.err.Error()
	}
	times := actTimes(o.res, len(tasks))
	for i, t := range tasks {
		if err := o.agents[i].p.Err(); err != nil {
			return fmt.Sprintf("agent %s: %v", live.TaskLabel(i), err)
		}
		opt, err := t.RunOptimal(o.res.Run)
		if err != nil {
			return fmt.Sprintf("oracle for agent %s: %v", live.TaskLabel(i), err)
		}
		want := -1
		if opt.Acted {
			want = int(opt.ActTime)
		}
		if times[i] != want {
			return fmt.Sprintf("agent %s acted at %d, RunOptimal at %d", live.TaskLabel(i), times[i], want)
		}
	}
	return ""
}

func (w *execN32) traced(i int, m *meter, tr *tracer) {
	b := tr.buf()
	b.setOp(w.tracedOps)
	var samples []float64
	var o execOut
	m.timed(func() int {
		b.begin("bench.exec")
		o = w.execute(w.tasks, unitSeeds(w.seed, i, 1)[0], &samples, b)
		b.end()
		return 1
	})
	b.flush()
	w.tracedOps++
	if o.err != nil {
		return
	}
	w.counts["live.replay_batches"] += float64(o.res.ReplayBatches)
	w.counts["live.replay_chunks"] += float64(o.res.ReplayChunks)
	var hs bounds.HandleStats
	for _, a := range o.agents {
		hs.Add(a.p.HandleStats())
	}
	w.counts["rev.relaxations"] += float64(hs.RevRelaxations)
	w.counts["rev.hits"] += float64(hs.RevHits)
	w.counts["rev.rebuilds"] += float64(hs.RevRebuilds)
}

// probe re-runs the first execProbes executions, untimed, and re-drives
// each recording through the layer probes, with a private bounds.Online
// engine per agent as Protocol2 uses here.
func (w *execN32) probe(tr *tracer) (int, error) {
	for k := 0; k < execProbes; k++ {
		var samples []float64
		o := w.execute(w.tasks, unitSeeds(w.seed, k, 1)[0], &samples, nil)
		if o.err != nil {
			return 0, fmt.Errorf("probe execution %d: %w", k, o.err)
		}
		b := tr.buf()
		b.setOp(k)
		b.begin("probe.exec")
		pc, err := probeRun(o.res.Run, w.tasks, decidedCounts(o.agents), func(v *run.View) (querier, error) {
			return bounds.NewOnline(v), nil
		}, b)
		b.end()
		b.flush()
		if err != nil {
			return 0, fmt.Errorf("probe of execution %d: %w", k, err)
		}
		w.probedDeliveries += pc
	}
	return execProbes, nil
}

func (w *execN32) layerCounts(probed int) map[string]float64 {
	lm := make(map[string]float64)
	if w.tracedOps > 0 {
		ops := float64(w.tracedOps)
		lm["live.replay_batches"] = w.counts["live.replay_batches"] / ops
		lm["live.replay_chunks"] = w.counts["live.replay_chunks"] / ops
		lm["bounds.rev_relaxations"] = w.counts["rev.relaxations"] / ops
		lm["bounds.rev_warm_ratio"] = ratio(w.counts["rev.hits"], w.counts["rev.rebuilds"])
	}
	if probed > 0 {
		lm["run.deliveries_added"] = float64(w.probedDeliveries) / float64(probed)
	}
	return lm
}
