// Package bench defines the repository's scaling benchmark bodies once, so
// that the root benchmark suite (go test -bench) and the perf-trajectory
// exporter (cmd/bench-export, which runs them via testing.Benchmark and
// writes BENCH_<date>.json) measure exactly the same workloads.
package bench

import (
	"fmt"
	"testing"

	"github.com/clockless/zigzag/internal/bounds"
	"github.com/clockless/zigzag/internal/coord"
	"github.com/clockless/zigzag/internal/live"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/sweep"
	"github.com/clockless/zigzag/internal/workload"
)

// Case is one benchmark cell: a name like "ScalingLive/n=16" and a body
// runnable both under go test -bench and testing.Benchmark.
type Case struct {
	Name string
	Run  func(b *testing.B)
}

// instance generates the standard scaling workload for n processes.
func instance(n int) *workload.Instance {
	cfg := workload.DefaultConfig(int64(n))
	cfg.Procs = n
	cfg.ExtraChannels = 2 * n
	return workload.MustGenerate(cfg)
}

// ScalingLive measures the goroutine-per-process live engine (no agents —
// the environment and FFIP relay cost alone) on the standard scaling
// workload.
func ScalingLive(n int) Case {
	return Case{
		Name: fmt.Sprintf("ScalingLive/n=%d", n),
		Run: func(b *testing.B) {
			in := instance(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := live.Run(live.Config{
					Net: in.Net, Horizon: in.Horizon,
					Policy: sim.NewRandom(int64(i)), Externals: in.Externals,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Run.NumNodes() == 0 {
					b.Fatal("empty run")
				}
			}
		},
	}
}

// protocol2Task wires the standard coordination task for the Protocol2
// scaling benchmarks: C triggers A over the instance's first channel and B
// (a third process) watches for an unattainably large separation — so the
// agent re-queries its growing view at every single state, which is
// exactly the per-state engine cost the benchmark isolates.
func protocol2Task(in *workload.Instance) coord.Task {
	a := in.Net.Arcs()[0]
	task := coord.Task{Kind: coord.Late, X: 1 << 20, C: a.From, A: a.To, GoTime: 1}
	for _, p := range in.Net.Procs() {
		if p != task.A && p != task.C {
			task.B = p
			break
		}
	}
	return task
}

// StateBatch is one recorded receive batch of an observed process: the
// receipts and external labels whose absorption creates one new state of
// its view. Payload snapshots are immutable and shared with the
// capture-time evolution, so recorded batches can be re-absorbed into
// fresh views any number of times — the replay fixture behind the
// Protocol2 benchmark bodies and the engine-tier differential tests
// (internal/bounds's external test package imports it rather than keeping
// its own copy of the replay loop).
type StateBatch struct {
	Proc      model.ProcID
	Receipts  []run.Receipt
	Externals []string
}

// ReplayBatches reconstructs the receive batches of every observed process
// from a recorded run, in global (time, process) order, with payload
// snapshots taken from per-process views evolved in lockstep — the exact
// payload structure (prefixes of shared per-process timelines) the live
// engine produces.
// It also returns the observed processes' fully-evolved views, for
// harnesses that subscribe fresh engines to a finished run.
func ReplayBatches(r *run.Run, observed map[model.ProcID]bool) ([]StateBatch, map[model.ProcID]*run.View) {
	net := r.Net()
	views := make([]*run.View, net.N())
	for _, p := range net.Procs() {
		views[p-1] = run.NewLocalView(net, p)
	}
	snaps := make(map[run.BasicNode]*run.Snapshot)
	var out []StateBatch
	for t := model.Time(1); t <= r.Horizon(); t++ {
		for _, p := range net.Procs() {
			node := r.NodeAt(p, t)
			if node.IsInitial() || r.MustTime(node) != t {
				continue
			}
			var receipts []run.Receipt
			for _, d := range r.Inbox(node) {
				receipts = append(receipts, run.Receipt{From: d.From, Payload: snaps[d.From]})
			}
			var externals []string
			for _, e := range r.ExternalsAt(node) {
				externals = append(externals, e.Label)
			}
			if _, err := views[p-1].Absorb(receipts, externals); err != nil {
				panic(err)
			}
			snaps[node] = views[p-1].Snapshot()
			if observed[p] {
				out = append(out, StateBatch{Proc: p, Receipts: receipts, Externals: externals})
			}
		}
	}
	final := make(map[model.ProcID]*run.View, len(observed))
	for p := range observed {
		final[p] = views[p-1]
	}
	return out, final
}

// replayBatches is ReplayBatches for a single benchmarked process.
func replayBatches(r *run.Run, bproc model.ProcID) []StateBatch {
	batches, _ := ReplayBatches(r, map[model.ProcID]bool{bproc: true})
	return batches
}

// protocol2 measures the per-state online decision loop of Protocol 2 for
// B over a recorded scaling run: absorb each receive batch into B's view
// and let the agent decide, under the selected engine. Only the engines
// differ between the Online and Rebuild variants; the replayed view
// maintenance is identical.
func protocol2(n int, name string, rebuild bool) Case {
	return Case{
		Name: fmt.Sprintf("%s/n=%d", name, n),
		Run: func(b *testing.B) {
			in := instance(n)
			task := protocol2Task(in)
			r, err := sim.Simulate(sim.Config{
				Net: in.Net, Horizon: in.Horizon, Policy: sim.NewRandom(11),
				Externals: sim.GoAt(task.C, task.GoTime, "go"),
			})
			if err != nil {
				b.Fatal(err)
			}
			batches := replayBatches(r, task.B)
			if len(batches) == 0 {
				b.Fatal("B never moves")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agent := &live.Protocol2{Task: task, Rebuild: rebuild}
				view := run.NewLocalView(in.Net, task.B)
				for bi := range batches {
					if _, err := view.Absorb(batches[bi].Receipts, batches[bi].Externals); err != nil {
						b.Fatal(err)
					}
					agent.OnState(view, batches[bi].Externals)
				}
				if err := agent.Err(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(batches)), "states")
		},
	}
}

// protocol2Early measures the per-state decision loop of an EARLY-kind
// Protocol2 agent over the same recorded scaling run as protocol2: the
// query source is B's moving state while the target stays fixed on A's
// node, so the forward (fixed-source) cache misses at every state and the
// engines' reverse (fixed-target) caches carry the load. rebuild selects
// the fresh-build-per-state baseline; shared routes the agent through a
// bounds.Shared handle instead of a private bounds.Online.
func protocol2Early(n int, name string, rebuild, shared bool) Case {
	return Case{
		Name: fmt.Sprintf("%s/n=%d", name, n),
		Run: func(b *testing.B) {
			in := instance(n)
			task := protocol2Task(in)
			task.Kind = coord.Early
			r, err := sim.Simulate(sim.Config{
				Net: in.Net, Horizon: in.Horizon, Policy: sim.NewRandom(11),
				Externals: sim.GoAt(task.C, task.GoTime, "go"),
			})
			if err != nil {
				b.Fatal(err)
			}
			batches := replayBatches(r, task.B)
			if len(batches) == 0 {
				b.Fatal("B never moves")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agent := &live.Protocol2{Task: task, Rebuild: rebuild}
				if shared {
					agent.Shared = bounds.NewShared(in.Net)
				}
				view := run.NewLocalView(in.Net, task.B)
				for bi := range batches {
					if _, err := view.Absorb(batches[bi].Receipts, batches[bi].Externals); err != nil {
						b.Fatal(err)
					}
					agent.OnState(view, batches[bi].Externals)
				}
				if err := agent.Err(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(batches)), "states")
		},
	}
}

// protocol2Multi measures m concurrent Protocol2 agents deciding over ONE
// recorded multi-agent run — the workload the shared per-run engine
// amortizes. Every agent's required separation is raised beyond
// knowability, so each re-queries its growing view at every one of its
// states; only the engine configuration differs between the variants:
// shared=true subscribes every agent to one bounds.Shared engine (one
// standing graph, per-agent frontier handles), shared=false gives each
// agent its own incremental bounds.Online engine (the PR-3 configuration
// the acceptance criterion compares against).
func protocol2Multi(m int, name string, shared bool) Case {
	return Case{
		Name: fmt.Sprintf("%s/m=%d", name, m),
		Run: func(b *testing.B) {
			sc := scenario.MultiAgent(m)
			tasks := append([]coord.Task(nil), sc.Tasks...)
			observed := make(map[model.ProcID]bool, m)
			for i := range tasks {
				tasks[i].X = 1 << 20 // unknowable: query at every state
				observed[tasks[i].B] = true
			}
			r, err := sim.Simulate(sim.Config{
				Net: sc.Net, Horizon: sc.Horizon, Policy: sim.NewRandom(11),
				Externals: sc.Externals,
			})
			if err != nil {
				b.Fatal(err)
			}
			batches, _ := ReplayBatches(r, observed)
			if len(batches) == 0 {
				b.Fatal("no agent ever moves")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var eng *bounds.Shared
				if shared {
					eng = bounds.NewShared(sc.Net)
				}
				agents := make(map[model.ProcID]*live.Protocol2, m)
				views := make(map[model.ProcID]*run.View, m)
				for j := range tasks {
					agents[tasks[j].B] = &live.Protocol2{Task: tasks[j], Shared: eng}
					views[tasks[j].B] = run.NewLocalView(sc.Net, tasks[j].B)
				}
				for bi := range batches {
					p := batches[bi].Proc
					if _, err := views[p].Absorb(batches[bi].Receipts, batches[bi].Externals); err != nil {
						b.Fatal(err)
					}
					agents[p].OnState(views[p], batches[bi].Externals)
				}
				for _, agent := range agents {
					if err := agent.Err(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(batches)), "states")
		},
	}
}

// sweepNetwork measures the knowledge-layer cost of a block of live
// multi-agent sweep cells over ONE topology — the workload the
// network-lifetime engine tier (bounds.NetworkEngine) amortizes. Each cell
// stamps out a per-run Shared engine, subscribes one handle per agent to
// that agent's fully-grown view, absorbs the run and answers a knowledge
// query, then releases the handle. With shared=true all cells go through
// one NetworkEngine, as sweep.Grid arranges: the aux psi band and its E”'
// adjacency are cloned rather than rebuilt, presizing hints are shared, and
// released scratches are re-leased by the next cell. With shared=false
// every cell re-derives the network tier — what NewShared cost before the
// hierarchy existed, and the rebuild-per-cell baseline the acceptance
// criterion compares against.
func sweepNetwork(m int, name string, shared bool) Case {
	const cells = 6
	return Case{
		Name: fmt.Sprintf("%s/m=%d", name, m),
		Run: func(b *testing.B) {
			sc := scenario.MultiAgent(m)
			observed := make(map[model.ProcID]bool, len(sc.Tasks))
			for i := range sc.Tasks {
				observed[sc.Tasks[i].B] = true
			}
			r, err := sim.Simulate(sim.Config{
				Net: sc.Net, Horizon: sc.Horizon, Policy: sim.NewRandom(11),
				Externals: sc.Externals,
			})
			if err != nil {
				b.Fatal(err)
			}
			_, views := ReplayBatches(r, observed)
			var eng *bounds.NetworkEngine
			if shared {
				eng = bounds.NewNetworkEngine(sc.Net)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for c := 0; c < cells; c++ {
					cellEng := eng
					if !shared {
						cellEng = bounds.NewNetworkEngine(sc.Net)
					}
					s := cellEng.NewRun()
					for j := range sc.Tasks {
						v := views[sc.Tasks[j].B]
						h, err := s.NewHandle(v)
						if err != nil {
							b.Fatal(err)
						}
						sigma := run.At(v.Origin())
						if _, _, err := h.KnowledgeWeight(sigma, sigma); err != nil {
							b.Fatal(err)
						}
						h.Release()
					}
				}
			}
			b.ReportMetric(cells, "cells")
		},
	}
}

// sweepSeeded measures a seed-scaling block of live multi-agent sweep cells
// under a DETERMINISTIC policy: every seed records the identical run, which
// is exactly the redundancy the content-addressed standing-prefix tier
// (bounds.PrefixEngine) collapses. Each cell stamps a per-run Shared,
// subscribes one handle per agent to that agent's fully-grown view, answers
// a knowledge query per task, and releases. With prefix=true the cells route
// through NewRunAt with the pre-simulated run fingerprint, as sweep.Grid
// arranges for deterministic live cells: the first seed misses and freezes
// the fully-absorbed standing graph, every later seed stamps the frozen
// prefix instead of re-absorbing the run. With prefix=false every cell
// absorbs from scratch through NewRun — the shared-network baseline the
// acceptance criterion compares against. The engine is rebuilt every
// iteration so one op prices a complete block: network-tier build plus one
// miss plus seeds-1 hits (or seeds full absorptions for the baseline).
func sweepSeeded(m, seeds int, name string, prefix bool) Case {
	return Case{
		Name: fmt.Sprintf("%s/m=%d/seeds=%d", name, m, seeds),
		Run: func(b *testing.B) {
			sc := scenario.MultiAgent(m)
			observed := make(map[model.ProcID]bool, len(sc.Tasks))
			for i := range sc.Tasks {
				observed[sc.Tasks[i].B] = true
			}
			r, err := sc.Simulate(nil)
			if err != nil {
				b.Fatal(err)
			}
			_, views := ReplayBatches(r, observed)
			fp := r.Fingerprint()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := bounds.NewNetworkEngine(sc.Net)
				for c := 0; c < seeds; c++ {
					var s *bounds.Shared
					if prefix {
						s, _ = eng.NewRunAt(fp)
					} else {
						s = eng.NewRun()
					}
					for j := range sc.Tasks {
						v := views[sc.Tasks[j].B]
						h, err := s.NewHandle(v)
						if err != nil {
							b.Fatal(err)
						}
						sigma := run.At(v.Origin())
						if _, _, err := h.KnowledgeWeight(sigma, sigma); err != nil {
							b.Fatal(err)
						}
						h.Release()
					}
					if prefix {
						s.CommitPrefix()
					}
				}
			}
			b.ReportMetric(float64(seeds), "cells")
		},
	}
}

// sweepLive measures one COMPLETE live sweep cell end to end — the
// policy-driven environment, FFIP flooding, every process's view
// maintenance and every Protocol2 decision — through the selected execution
// engine: the goroutine-free replay drive (recorded batches, no channels)
// or the goroutine-per-process environment it replaces as the sweep
// default. The NetworkEngine is built outside the timer, as sweep.Grid
// amortizes it across a block; each iteration is one full cell under a
// fresh seeded random policy, so the pair prices exactly what the sweep's
// live grid dimension pays per cell.
func sweepLive(m int, name string, replay bool) Case {
	return Case{
		Name: fmt.Sprintf("%s/m=%d", name, m),
		Run: func(b *testing.B) {
			sc := scenario.MultiAgent(m)
			eng := bounds.NewNetworkEngine(sc.Net)
			exec := live.Run
			if replay {
				exec = live.Replay
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agents, agentMap := live.NewTaskAgents(sc.TaskList())
				res, err := exec(live.Config{
					Net: sc.Net, Horizon: sc.Horizon, Policy: sim.NewRandom(int64(i)),
					Externals: sc.Externals, Agents: agentMap, Engine: eng,
				})
				if err != nil {
					b.Fatal(err)
				}
				for j := range agents {
					if err := agents[j].Err(); err != nil {
						b.Fatal(err)
					}
				}
				if res.Run.NumNodes() == 0 {
					b.Fatal("empty run")
				}
			}
		},
	}
}

// SweepReplayLive is one goroutine-free replay live cell per op: the
// execution mode full-registry live sweeps run under by default.
func SweepReplayLive(m int) Case { return sweepLive(m, "SweepReplayLive", true) }

// SweepGoroutineLive is the goroutine-per-process cell recorded alongside
// SweepReplayLive: the identical workload through the channel-synchronized
// environment, kept as the replay mode's differential oracle.
func SweepGoroutineLive(m int) Case { return sweepLive(m, "SweepGoroutineLive", false) }

// SweepSharedNetwork is the cross-run amortization benchmark: a block of
// live-style multi-agent sweep cells all served by one per-network
// knowledge engine.
func SweepSharedNetwork(m int) Case { return sweepNetwork(m, "SweepSharedNetwork", true) }

// SweepPrefixShared is the seed-scaling benchmark of the standing-prefix
// tier: seeds deterministic cells over one network, the first freezing the
// absorbed standing graph and the rest stamping the frozen prefix.
func SweepPrefixShared(m, seeds int) Case { return sweepSeeded(m, seeds, "SweepPrefixShared", true) }

// SweepSharedNetworkSeeds is the prefix-blind baseline recorded alongside
// SweepPrefixShared: identical deterministic cells, each absorbing the run
// from scratch through the shared network engine.
func SweepSharedNetworkSeeds(m, seeds int) Case {
	return sweepSeeded(m, seeds, "SweepSharedNetwork", false)
}

// SweepRebuildNetwork is the rebuild-per-cell baseline recorded alongside
// SweepSharedNetwork: identical cells, each re-deriving the network tier.
func SweepRebuildNetwork(m int) Case { return sweepNetwork(m, "SweepRebuildNetwork", false) }

// Protocol2Shared is the shared-engine multi-agent decision loop: one
// bounds.Shared standing graph serves all m agents.
func Protocol2Shared(m int) Case { return protocol2Multi(m, "Protocol2Shared", true) }

// Protocol2MultiOnline is the per-agent-engine baseline recorded alongside
// Protocol2Shared: identical workload, m independent bounds.Online engines.
func Protocol2MultiOnline(m int) Case { return protocol2Multi(m, "Protocol2MultiOnline", false) }

// Protocol2Online is the end-to-end online coordination decision with the
// incremental bounds.Online engine: every state of B pays only for the
// view's growth.
func Protocol2Online(n int) Case { return protocol2(n, "Protocol2Online", false) }

// Protocol2Rebuild is the rebuild-per-state baseline recorded alongside
// Protocol2Online: identical workload, but B reconstructs GE(r, sigma)
// from scratch at every state.
func Protocol2Rebuild(n int) Case { return protocol2(n, "Protocol2Rebuild", true) }

// Protocol2EarlyOnline is the Early-kind online decision loop with the
// incremental bounds.Online engine: the moving-source query shape served by
// the engine's reverse (fixed-target) cache.
func Protocol2EarlyOnline(n int) Case { return protocol2Early(n, "Protocol2EarlyOnline", false, false) }

// Protocol2EarlyShared is the Early-kind decision loop through a
// bounds.Shared handle — the reverse cache under the restricted standing
// graph.
func Protocol2EarlyShared(n int) Case { return protocol2Early(n, "Protocol2EarlyShared", false, true) }

// Protocol2EarlyRebuild is the fresh-build-per-state baseline recorded
// alongside the Early variants.
func Protocol2EarlyRebuild(n int) Case {
	return protocol2Early(n, "Protocol2EarlyRebuild", true, false)
}

// ScalingSimulate measures lockstep simulator throughput (the B1 row). The
// nodes metric is the determinism guard: it must stay identical across
// perf-only changes.
func ScalingSimulate(n int) Case {
	return Case{
		Name: fmt.Sprintf("ScalingSimulate/n=%d", n),
		Run: func(b *testing.B) {
			in := instance(n)
			var nodes int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := in.Simulate(sim.NewRandom(int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				nodes = r.NumNodes()
			}
			b.ReportMetric(float64(nodes), "nodes")
		},
	}
}

// ScalingBasicGraph measures dense GB(r) construction (the B1 row).
func ScalingBasicGraph(n int) Case {
	return Case{
		Name: fmt.Sprintf("ScalingBasicGraph/n=%d", n),
		Run: func(b *testing.B) {
			in := instance(n)
			r, err := in.Simulate(sim.NewRandom(5))
			if err != nil {
				b.Fatal(err)
			}
			var edges int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				edges = bounds.NewBasic(r).NumEdges()
			}
			if edges == 0 {
				b.Fatal("no edges")
			}
			b.ReportMetric(float64(edges), "edges")
		},
	}
}

// ScalingKnowledge measures one extended-graph build plus knowledge query —
// the per-decision cost of offline Protocol 2.
func ScalingKnowledge(n int) Case {
	return Case{
		Name: fmt.Sprintf("ScalingKnowledge/n=%d", n),
		Run: func(b *testing.B) {
			in := instance(n)
			r, err := in.Simulate(sim.NewRandom(5))
			if err != nil {
				b.Fatal(err)
			}
			window := in.WindowNodes(r)
			sigma := window[len(window)-1]
			ps, err := r.Past(sigma)
			if err != nil {
				b.Fatal(err)
			}
			var theta1 run.GeneralNode
			for _, node := range window {
				if ps.Contains(node) && !node.IsInitial() {
					theta1 = run.At(node)
					break
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ext, err := bounds.NewExtended(r, sigma)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, _, err := ext.KnowledgeWeight(theta1, run.At(sigma)); err != nil {
					b.Fatal(err)
				}
			}
		},
	}
}

// knowsCase measures a page of threshold knowledge queries against a
// standing extended graph — the query shape Protocol2 issues at every
// state — through the weight-only fast path (Knows: one SPFA, one
// comparison, no witness) or the witness-bearing KnowledgeWeight it
// replaced as the threshold-query engine.
func knowsCase(n int, name string, weightOnly bool) Case {
	return Case{
		Name: fmt.Sprintf("%s/n=%d", name, n),
		Run: func(b *testing.B) {
			in := instance(n)
			r, err := in.Simulate(sim.NewRandom(int64(n) * 7))
			if err != nil {
				b.Fatal(err)
			}
			window := in.WindowNodes(r)
			sigma := window[len(window)-1]
			ext, err := bounds.NewExtended(r, sigma)
			if err != nil {
				b.Fatal(err)
			}
			ps := ext.Past()
			var cands []run.GeneralNode
			for _, node := range window {
				if ps.Contains(node) && !node.IsInitial() {
					cands = append(cands, run.At(node))
				}
			}
			if len(cands) > 8 {
				cands = cands[len(cands)-8:]
			}
			if len(cands) < 2 {
				b.Fatal("no query candidates in window")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for ci, t1 := range cands {
					for cj, t2 := range cands {
						if ci == cj {
							continue
						}
						if weightOnly {
							if _, err := ext.Knows(t1, 1, t2); err != nil {
								b.Fatal(err)
							}
						} else {
							_, _, known, err := ext.KnowledgeWeight(t1, t2)
							if err != nil {
								b.Fatal(err)
							}
							_ = known
						}
					}
				}
			}
			b.ReportMetric(float64(len(cands)*(len(cands)-1)), "queries")
		},
	}
}

// KnowsWeightOnly prices the threshold query as Protocol2 now issues it:
// weight-only, zero witness allocation.
func KnowsWeightOnly(n int) Case { return knowsCase(n, "KnowsWeightOnly", true) }

// KnowsWitnessPath is the witness-bearing baseline recorded alongside
// KnowsWeightOnly: the identical queries through KnowledgeWeight, paying
// for predecessor tracking and Step materialization nobody reads.
func KnowsWitnessPath(n int) Case { return knowsCase(n, "KnowsWitnessPath", false) }

// xVariants expands one multi-agent coordination scenario across nx
// separation thresholds, marked as an x-axis family the way sweep.Axes
// marks them (XBase/XValue plus per-task X overrides).
func xVariants(m, nx int) []*scenario.Scenario {
	base := scenario.MultiAgent(m)
	out := make([]*scenario.Scenario, 0, nx)
	for x := 0; x < nx; x++ {
		cp := *base
		cp.Name = fmt.Sprintf("%s@x=%d", base.Name, x)
		cp.XBase = base.Name
		cp.XValue = x
		cp.Tasks = append([]coord.Task(nil), base.Tasks...)
		for j := range cp.Tasks {
			cp.Tasks[j].X = x
		}
		cp.Task = &cp.Tasks[0]
		out = append(out, &cp)
	}
	return out
}

// sweepX measures a complete live sweep over an nx-point x axis of one
// coordination scenario — the grid carve, every execution, agent decisions
// and result assembly — either batched (one execution per (policy, seed)
// answering every x row through KnowsAt grids and fanned results) or
// dedicated (one execution per x, what every multi-x sweep paid before the
// batched knowledge-query plane).
func sweepX(m, nx int, name string, noXBatch bool) Case {
	return Case{
		Name: fmt.Sprintf("%s/m=%d/xs=%d", name, m, nx),
		Run: func(b *testing.B) {
			g := sweep.Grid{
				Live: xVariants(m, nx),
				Policies: []sweep.PolicySpec{
					{Name: "lazy", New: func(int64) sim.Policy { return sim.Lazy{} }, Deterministic: true},
				},
				Seeds:    []int64{1},
				Workers:  1,
				NoXBatch: noXBatch,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := g.Run()
				if err != nil {
					b.Fatal(err)
				}
				for j := range results {
					if results[j].Err != nil {
						b.Fatal(results[j].Err)
					}
				}
			}
			b.ReportMetric(float64(nx), "cells")
		},
	}
}

// SweepBatchedX is the x-collapsed live sweep: one execution answers the
// whole x axis. Acceptance: >= 4x fewer allocs/op and >= 3x lower ns/op
// than SweepPerX at m=16, xs=8.
func SweepBatchedX(m, nx int) Case { return sweepX(m, nx, "SweepBatchedX", false) }

// SweepPerX is the dedicated per-x baseline recorded alongside
// SweepBatchedX: identical grid, one full execution per x value.
func SweepPerX(m, nx int) Case { return sweepX(m, nx, "SweepPerX", true) }

// ExportCases is the perf-trajectory suite written by cmd/bench-export:
// every scaling family at its standard sizes.
func ExportCases() []Case {
	var cases []Case
	for _, n := range []int{4, 8, 16, 32} {
		cases = append(cases, ScalingSimulate(n))
	}
	for _, n := range []int{4, 8, 16, 32, 64, 128} {
		cases = append(cases, ScalingBasicGraph(n))
	}
	for _, n := range []int{4, 8, 16, 32, 64, 128} {
		cases = append(cases, ScalingKnowledge(n))
	}
	for _, n := range []int{8, 16, 32, 64} {
		cases = append(cases, ScalingLive(n))
	}
	// The rebuild baseline stops at n=32: at n=64 a single rebuild-per-state
	// run takes over a minute, which is exactly the point of the online
	// engine — the online variant covers n=64 on its own.
	for _, n := range []int{8, 16, 32} {
		cases = append(cases, Protocol2Rebuild(n))
	}
	for _, n := range []int{8, 16, 32, 64} {
		cases = append(cases, Protocol2Online(n))
	}
	for _, n := range []int{8, 16, 32} {
		cases = append(cases, Protocol2EarlyRebuild(n))
	}
	for _, n := range []int{8, 16, 32, 64} {
		cases = append(cases, Protocol2EarlyOnline(n))
	}
	for _, n := range []int{8, 16, 32, 64} {
		cases = append(cases, Protocol2EarlyShared(n))
	}
	for _, m := range scenario.MultiAgentSizes {
		cases = append(cases, Protocol2MultiOnline(m))
	}
	for _, m := range scenario.MultiAgentSizes {
		cases = append(cases, Protocol2Shared(m))
	}
	for _, m := range []int{4, 8} {
		cases = append(cases, SweepRebuildNetwork(m))
	}
	for _, m := range []int{4, 8} {
		cases = append(cases, SweepSharedNetwork(m))
	}
	for _, seeds := range []int{4, 16, 64} {
		cases = append(cases, SweepSharedNetworkSeeds(4, seeds))
		cases = append(cases, SweepPrefixShared(4, seeds))
	}
	// The live-cell execution pair is interleaved per m — oracle then
	// replay back to back — so each comparison's two cells run under the
	// same heap and machine conditions.
	for _, m := range scenario.MultiAgentSizes {
		cases = append(cases, SweepGoroutineLive(m))
		cases = append(cases, SweepReplayLive(m))
	}
	// The threshold-query and x-axis pairs are interleaved the same way:
	// baseline then fast path back to back.
	for _, n := range []int{8, 16, 32, 64} {
		cases = append(cases, KnowsWitnessPath(n))
		cases = append(cases, KnowsWeightOnly(n))
	}
	for _, nx := range []int{4, 8} {
		cases = append(cases, SweepPerX(16, nx))
		cases = append(cases, SweepBatchedX(16, nx))
	}
	return cases
}
