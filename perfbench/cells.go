package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/coord"
	"github.com/clockless/zigzag/internal/faults"
	"github.com/clockless/zigzag/internal/graph"
	"github.com/clockless/zigzag/internal/live"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/pattern"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sweep"
)

// timedAgent wraps a Protocol2 agent and times every state at which the
// agent still has to decide (it has neither acted nor degraded): two reads
// of the thread's CPU clock around OnState (decideClock), plus a
// live.decide span when traced. It forwards UseShared and Degrade, so the
// wrapped agent is wired exactly as it would be bare.
type timedAgent struct {
	p       *live.Protocol2
	acted   bool
	decided int        // states timed
	samples *[]float64 // decision latencies in µs, shared by one execution's agents
	tb      *spanBuf
}

func (a *timedAgent) OnState(v *run.View, externals []string) []string {
	if a.acted || a.p.Degraded() || a.p.Err() != nil {
		return a.p.OnState(v, externals)
	}
	a.tb.begin("live.decide")
	var acts []string
	d := decideClock(func() { acts = a.p.OnState(v, externals) })
	a.tb.end()
	*a.samples = append(*a.samples, float64(d.Nanoseconds())/1e3)
	a.decided++
	a.acted = len(acts) > 0
	return acts
}

func (a *timedAgent) UseShared(s *bounds.Shared) { a.p.UseShared(s) }

func (a *timedAgent) Degrade(reason error) { a.p.Degrade(reason) }

// wrapAgents builds one timed Protocol2 agent per task, acting with the
// canonical task labels, and the process-keyed map live.Config wants.
func wrapAgents(tasks []coord.Task, samples *[]float64, tb *spanBuf) ([]*timedAgent, map[model.ProcID]live.Agent) {
	agents, _ := live.NewTaskAgents(tasks)
	timed := make([]*timedAgent, len(agents))
	byProc := make(map[model.ProcID]live.Agent, len(agents))
	for i, p := range agents {
		timed[i] = &timedAgent{p: p, samples: samples, tb: tb}
		byProc[p.Task.B] = timed[i]
	}
	return timed, byProc
}

// decidedCounts returns how many states each timed agent decided at.
func decidedCounts(agents []*timedAgent) []int {
	n := make([]int, len(agents))
	for i, a := range agents {
		n[i] = a.decided
	}
	return n
}

// liveCellOut is one live cell driven through the benchmark's own loop.
type liveCellOut struct {
	out      *live.Result
	agents   []*live.Protocol2
	decided  []int  // per agent, the states it decided at
	prefix   string // sweep.PrefixHit or sweep.PrefixMiss when the cell went through the prefix cache
	simDeliv int    // deliveries recorded by the fingerprint pre-simulation
}

// fpMemo caches the run fingerprint of each deterministic (scenario, policy)
// pair, as sweep.Grid does, so only the first cell pays the pre-simulation.
type fpMemo struct {
	mu sync.Mutex
	m  map[[2]string]uint64
}

// runLiveCell executes one replay-mode live cell the way sweep.Grid does —
// fault plan from (family, seed), fingerprint pre-simulation and
// standing-prefix stamping for deterministic fault-free cells, one Protocol2
// per task — but stamps the per-run engine itself and wraps every agent, so
// the calls into bounds, live and sim are timed separately.
func runLiveCell(sc *scenario.Scenario, spec sweep.PolicySpec, seed int64, eng *bounds.NetworkEngine,
	memo *fpMemo, samples *[]float64, tb *spanBuf) (liveCellOut, error) {
	var res liveCellOut
	var plan *faults.Plan
	if sc.FaultFamily != "" {
		p, err := faults.NewPlan(sc.FaultFamily, sc.Net, sc.Horizon, seed)
		if err != nil {
			return res, err
		}
		plan = p
	}
	var fp uint64
	if spec.Deterministic && plan == nil {
		key := [2]string{sc.Name, spec.Name}
		memo.mu.Lock()
		fp = memo.m[key]
		memo.mu.Unlock()
		if fp == 0 {
			tb.begin("sim.record")
			r, err := sc.Simulate(spec.New(seed))
			tb.end()
			if err != nil {
				return res, err
			}
			res.simDeliv = len(r.Deliveries())
			tb.begin("run.fingerprint")
			fp = r.Fingerprint()
			tb.end()
			memo.mu.Lock()
			memo.m[key] = fp
			memo.mu.Unlock()
		}
	}
	tb.begin("bounds.stamp")
	shared, hit := eng.NewRunAt(fp)
	tb.end()
	if fp != 0 {
		res.prefix = sweep.PrefixMiss
		if hit {
			res.prefix = sweep.PrefixHit
		}
	}
	timed, byProc := wrapAgents(sc.TaskList(), samples, tb)
	tb.begin("live.replay")
	out, err := live.Replay(live.Config{
		Net: sc.Net, Horizon: sc.Horizon, Policy: spec.New(seed),
		Externals: sc.Externals, Agents: byProc, Shared: shared, Faults: plan,
	})
	tb.end()
	if err != nil {
		return res, err
	}
	if fp != 0 && !hit {
		tb.begin("run.fingerprint")
		got := out.Run.Fingerprint()
		tb.end()
		if got != fp {
			return res, fmt.Errorf("%s/%s: recorded fingerprint %#x, predicted %#x", sc.Name, spec.Name, got, fp)
		}
		tb.begin("bounds.stamp")
		shared.CommitPrefix()
		tb.end()
	}
	res.out, res.decided = out, decidedCounts(timed)
	for i, a := range timed {
		if aerr := a.p.Err(); aerr != nil {
			return res, fmt.Errorf("agent %s: %w", live.TaskLabel(i), aerr)
		}
		res.agents = append(res.agents, a.p)
	}
	return res, nil
}

// actTimes returns each task's act time in a live execution (-1 when the
// agent did not act), looked up by the canonical task labels.
func actTimes(out *live.Result, ntasks int) []int {
	times := make([]int, ntasks)
	for i := range times {
		times[i] = -1
	}
	for _, a := range out.Actions {
		for i := range times {
			if a.Label == live.TaskLabel(i) && times[i] < 0 {
				times[i] = int(a.Time)
			}
		}
	}
	return times
}

// offlineDecide replays coord.Task.RunOptimal's scan of B's states — view
// extraction, extended bounds graph, knowledge witness — calling each layer
// itself, so the offline agent's per-state decision is timed (samples, in
// µs) and its layers traced. It returns the state at which B acts and the
// knowledge weight it knew there; acted is false when B never acts.
func offlineDecide(t coord.Task, r *run.Run, samples *[]float64, tb *spanBuf) (acted bool, node run.BasicNode, kw int, err error) {
	w, err := t.Wire(r)
	if err != nil {
		return false, node, 0, err
	}
	for k := 1; k <= r.LastIndex(t.B); k++ {
		sigma := run.BasicNode{Proc: t.B, Index: k}
		var known bool
		var weight int
		d := decideClock(func() {
			var view *run.View
			var ext *bounds.Extended
			tb.begin("run.viewof")
			view, err = run.ViewOf(r, sigma)
			tb.end()
			if err != nil {
				return
			}
			tb.begin("bounds.extended_build")
			ext, err = bounds.NewExtendedFromView(view)
			tb.end()
			if err != nil || !ext.Past().Contains(w.SigmaC) {
				return
			}
			theta1, theta2 := w.ANode, run.At(sigma)
			if t.Kind == coord.Early {
				theta1, theta2 = theta2, theta1
			}
			tb.begin("pattern.witness")
			_, weight, known, err = pattern.KnowledgeWitness(ext, theta1, theta2)
			tb.end()
		})
		*samples = append(*samples, float64(d.Nanoseconds())/1e3)
		if err != nil {
			return false, node, 0, err
		}
		if known && weight >= t.X {
			return true, sigma, weight, nil
		}
	}
	return false, node, 0, nil
}

// decideClock runs f on a locked OS thread and returns the thread CPU time
// it took (CLOCK_THREAD_CPUTIME_ID). On an idle host that is the call's
// latency; on a shared virtual machine it leaves out the time the
// hypervisor or the scheduler gave the CPU to someone else, which bursts to
// milliseconds there and would otherwise set the 99th percentile.
func decideClock(f func()) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	f()
	return threadCPU() - t0
}

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID from <time.h>.
const clockThreadCPUTime = 3

// monoStart anchors threadCPU's fallback clock.
var monoStart = time.Now()

// threadCPU returns the calling thread's CPU time, or the monotonic wall
// time where the kernel has no per-thread CPU clock.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return time.Since(monoStart)
	}
	return time.Duration(ts.Nano())
}

// querier is the knowledge-engine surface the layer probe drives: both the
// private incremental engine (bounds.Online) and a shared-engine handle
// (bounds.Handle) provide it.
type querier interface {
	Sync() error
	Weight(theta1, theta2 run.GeneralNode) (kw int, known bool, err error)
}

// probeRun re-drives a recorded execution through the layers
// live.Replay calls internally, timing each call: every process's view
// absorbs its receive batches in (time, process) order (run.absorb), a
// snapshot is taken of every state some process later receives
// (run.snapshot), and at each of the first decided[i] states of task i's B
// process — the states its agent decided at in the recorded execution —
// the task's knowledge engine, made by newEngine for the view as the
// Protocol2 agent would, syncs (bounds.sync) and answers the task's query
// (bounds.query_fwd for Late-shaped, bounds.query_rev for Early-shaped).
//
// It returns the number of deliveries the views absorbed.
func probeRun(r *run.Run, tasks []coord.Task, decided []int, newEngine func(*run.View) (querier, error), tb *spanBuf) (deliveries int, err error) {
	net := r.Net()
	sent := make(map[run.BasicNode]bool, len(r.Deliveries()))
	for _, d := range r.Deliveries() {
		sent[d.From] = true
	}
	type agentState struct {
		task    coord.Task
		left    int // decided states still to drive
		q       querier
		goFound bool
		aNode   run.GeneralNode
	}
	agents := make(map[model.ProcID]*agentState, len(tasks))
	for i, t := range tasks {
		agents[t.B] = &agentState{task: t, left: decided[i]}
	}
	views := make([]*run.View, net.N())
	for _, p := range net.Procs() {
		views[p-1] = run.NewLocalView(net, p)
	}
	snaps := make(map[run.BasicNode]*run.Snapshot)
	var receipts []run.Receipt
	var labels []string
	for t := model.Time(1); t <= r.Horizon(); t++ {
		for _, p := range net.Procs() {
			node := r.NodeAt(p, t)
			if node.IsInitial() || r.MustTime(node) != t {
				continue
			}
			receipts, labels = receipts[:0], labels[:0]
			for _, d := range r.Inbox(node) {
				receipts = append(receipts, run.Receipt{From: d.From, Payload: snaps[d.From]})
			}
			for _, e := range r.ExternalsAt(node) {
				labels = append(labels, e.Label)
			}
			v := views[p-1]
			tb.begin("run.absorb")
			got, err := v.Absorb(receipts, labels)
			tb.end()
			if err != nil {
				return deliveries, err
			}
			if got != node {
				return deliveries, fmt.Errorf("probe: absorb made %v, the recording has %v", got, node)
			}
			deliveries += len(receipts)
			if sent[node] {
				tb.begin("run.snapshot")
				snaps[node] = v.Snapshot()
				tb.end()
			}
			st := agents[p]
			if st == nil || st.left == 0 {
				continue
			}
			st.left--
			if !st.goFound {
				label := st.task.GoLabel
				if label == "" {
					label = "go"
				}
				sigmaC, ok := v.FindExternal(st.task.C, label)
				if !ok {
					continue
				}
				st.goFound = true
				st.aNode = run.At(sigmaC).Hop(st.task.A)
			}
			if st.q == nil {
				if st.q, err = newEngine(v); err != nil {
					return deliveries, err
				}
			}
			tb.begin("bounds.sync")
			err = st.q.Sync()
			tb.end()
			kw, known := 0, false
			if err == nil {
				theta1, theta2, name := st.aNode, run.At(node), "bounds.query_fwd"
				if st.task.Kind == coord.Early {
					theta1, theta2, name = theta2, theta1, "bounds.query_rev"
				}
				tb.begin(name)
				kw, known, err = st.q.Weight(theta1, theta2)
				tb.end()
			}
			// A graph that refutes a channel bound (faulted recordings
			// only) ends the agent's queries, as Protocol2 degrades there.
			refuted := errors.Is(err, graph.ErrPositiveCycle)
			if err != nil && !refuted {
				return deliveries, err
			}
			if refuted || (known && kw >= st.task.X) {
				st.left = 0
				if h, ok := st.q.(*bounds.Handle); ok {
					h.Release()
				}
			}
		}
	}
	return deliveries, nil
}
