package bounds

import (
	"testing"

	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/workload"
)

// earlyTargets picks the fixed query targets an Early-kind agent keeps
// asking about: node vertices of OTHER processes (an Early agent watches
// KW(sigma, aNode) for a's node on C/A, never its own origin), so the
// reverse per-target cache is the natural servant of every query.
func earlyTargets(v *run.View) []run.GeneralNode {
	net := v.Net()
	var out []run.GeneralNode
	for p := model.ProcID(1); int(p) <= net.N() && len(out) < 2; p++ {
		if p == v.Origin().Proc {
			continue
		}
		if bnd, ok := v.Boundary(p); ok && !bnd.IsInitial() {
			out = append(out, run.At(bnd))
		}
	}
	return out
}

// TestOnlineEarlyMatchesFreshBuild is the reverse cache's differential
// acceptance test on the private engine: on every state of random
// scenarios, Early-pattern queries — moving source sigma (and its
// chain-crossing neighbours), fixed targets — through the incrementally
// maintained reverse distances are identical to a fresh
// NewExtendedFromView of the same view. Interleaved forward queries pin
// that the two caches coexist without cross-talk, and the stats assert
// the reverse path actually served (this test would be vacuous if the
// selection policy quietly routed everything forward).
func TestOnlineEarlyMatchesFreshBuild(t *testing.T) {
	var served HandleStats
	for seed := int64(1); seed <= 6; seed++ {
		cfg := workload.DefaultConfig(seed)
		cfg.Procs = 4 + int(seed%3)
		in := workload.MustGenerate(cfg)
		r, err := in.Simulate(sim.NewRandom(seed * 13))
		if err != nil {
			t.Fatal(err)
		}
		procs := in.Net.Procs()
		p := procs[int(seed)%len(procs)]
		if r.LastIndex(p) == 0 {
			continue
		}
		var eng *Online
		replayViews(t, r, p, func(k int, v *run.View) {
			if eng == nil {
				eng = NewOnline(v)
			}
			fresh, err := NewExtendedFromView(v)
			if err != nil {
				t.Fatal(err)
			}
			targets := earlyTargets(v)
			sources := queryNodes(v)
			for _, t2 := range targets {
				for _, t1 := range sources {
					wantKW, _, wantKnown, wantErr := fresh.KnowledgeWeight(t1, t2)
					gotKW, gotKnown, gotErr := eng.KnowledgeWeight(t1, t2)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("seed %d p%d#%d %s->%s: err fresh=%v online=%v",
							seed, p, k, t1, t2, wantErr, gotErr)
					}
					if wantErr != nil {
						continue
					}
					if wantKnown != gotKnown || (wantKnown && wantKW != gotKW) {
						t.Fatalf("seed %d p%d#%d %s->%s: fresh (%d,%v) online (%d,%v)",
							seed, p, k, t1, t2, wantKW, wantKnown, gotKW, gotKnown)
					}
				}
				// A forward-path query (chain-vertex target, so the selector
				// cannot route it through the reverse cache) between reverse
				// queries must neither be corrupted by nor corrupt that cache.
				sigma := run.At(v.Origin())
				for _, chain := range sources {
					if chain.IsBasic() {
						continue
					}
					wantKW, _, wantKnown, wantErr := fresh.KnowledgeWeight(sigma, chain)
					gotKW, gotKnown, gotErr := eng.KnowledgeWeight(sigma, chain)
					if (wantErr == nil) != (gotErr == nil) ||
						(wantErr == nil && (wantKnown != gotKnown || (wantKnown && wantKW != gotKW))) {
						t.Fatalf("seed %d p%d#%d forward %s->%s: fresh (%d,%v,%v) online (%d,%v,%v)",
							seed, p, k, sigma, chain, wantKW, wantKnown, wantErr, gotKW, gotKnown, gotErr)
					}
					break
				}
			}
		})
		if eng != nil {
			served.Add(eng.Stats())
		}
	}
	if served.RevHits == 0 || served.RevRebuilds == 0 {
		t.Fatalf("reverse cache never exercised: %+v", served)
	}
}

// TestSharedEarlyMatchesFreshBuild is the same differential through the
// shared engine's restricted handles: several agents interleaved on ONE
// standing graph, each repeatedly asking Early-pattern questions about a
// fixed target, must answer byte-identically to fresh builds at every
// state — pinning the reverse relaxation over frontier masks, per-handle
// E″ transposes, reverse virtual boundary edges and the aux-band refresh
// after E″ retirement.
func TestSharedEarlyMatchesFreshBuild(t *testing.T) {
	var served HandleStats
	for seed := int64(1); seed <= 4; seed++ {
		cfg := workload.DefaultConfig(seed)
		cfg.Procs = 4 + int(seed%3)
		in := workload.MustGenerate(cfg)
		r, err := in.Simulate(sim.NewRandom(seed * 13))
		if err != nil {
			t.Fatal(err)
		}
		procs := in.Net.Procs()
		observers := map[model.ProcID]bool{
			procs[int(seed)%len(procs)]:     true,
			procs[(int(seed)+1)%len(procs)]: true,
			procs[(int(seed)+3)%len(procs)]: true,
		}
		eng := NewShared(in.Net)
		handles := make(map[model.ProcID]*Handle)
		replayAll(t, r, observers, func(p model.ProcID, k int, v *run.View) {
			h, ok := handles[p]
			if !ok {
				h = mustHandle(t, eng, v)
				handles[p] = h
			}
			fresh, err := NewExtendedFromView(v)
			if err != nil {
				t.Fatal(err)
			}
			for _, t2 := range earlyTargets(v) {
				for _, t1 := range queryNodes(v) {
					wantKW, _, wantKnown, wantErr := fresh.KnowledgeWeight(t1, t2)
					gotKW, gotKnown, gotErr := h.KnowledgeWeight(t1, t2)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("seed %d p%d#%d %s->%s: err fresh=%v shared=%v",
							seed, p, k, t1, t2, wantErr, gotErr)
					}
					if wantErr != nil {
						continue
					}
					if wantKnown != gotKnown || (wantKnown && wantKW != gotKW) {
						t.Fatalf("seed %d p%d#%d %s->%s: fresh (%d,%v) shared (%d,%v)",
							seed, p, k, t1, t2, wantKW, wantKnown, gotKW, gotKnown)
					}
				}
			}
		})
		for _, h := range handles {
			served.Add(h.Stats())
		}
	}
	if served.RevHits == 0 || served.RevRebuilds == 0 {
		t.Fatalf("reverse cache never exercised: %+v", served)
	}
}

// TestSharedEarlyAllocationGuard is the Early-kind twin of
// TestSharedAllocationGuard: once a handle's reverse cache is warm for a
// fixed target, a repeated Early-pattern query (moving source, same
// target) must allocate at most the same small constant — the reverse
// restriction is assembled on the stack and relaxation runs in the
// leased reverse scratch.
func TestSharedEarlyAllocationGuard(t *testing.T) {
	net := model.MustComplete(4, 1, 5)
	r := sim.MustSimulate(sim.Config{
		Net: net, Horizon: 40, Policy: sim.Lazy{}, Externals: sim.GoAt(1, 1, "go"),
	})
	eng := NewShared(net)
	var h *Handle
	var view *run.View
	observers := map[model.ProcID]bool{2: true}
	replayAll(t, r, observers, func(p model.ProcID, k int, v *run.View) {
		if h == nil {
			h = mustHandle(t, eng, v)
			view = v
		}
	})
	if h == nil {
		t.Fatal("observer never moves")
	}
	// Early shape: moving source = the observer's own origin, fixed target
	// = another process's node (the aNode stand-in).
	target, ok := view.Boundary(1)
	if !ok || target.IsInitial() {
		t.Fatal("no boundary node on proc 1")
	}
	theta2 := run.At(target)
	// An Early agent's source MOVES between queries of the same target — a
	// source matching the forward cache would be served forward. Warm up
	// with two older sources (the first establishes the forward cache, the
	// second misses it and builds the reverse cache for theta2), then
	// measure with a third: every measured query is a reverse warm hit.
	first := run.At(run.BasicNode{Proc: 2, Index: 1})
	second := run.At(run.BasicNode{Proc: 2, Index: 2})
	sigma := run.At(view.Origin())
	if _, known, err := h.KnowledgeWeight(first, theta2); err != nil || !known {
		t.Fatalf("forward warmup: known=%v err=%v", known, err)
	}
	if _, known, err := h.KnowledgeWeight(second, theta2); err != nil || !known {
		t.Fatalf("reverse warmup: known=%v err=%v", known, err)
	}
	base := h.Stats()
	const limit = 4
	got := testing.AllocsPerRun(50, func() {
		if _, _, err := h.KnowledgeWeight(sigma, theta2); err != nil {
			t.Fatal(err)
		}
	})
	if got > limit {
		t.Errorf("warm Early query allocates %.0f times per run, want <= %d", got, limit)
	}
	if after := h.Stats(); after.RevHits <= base.RevHits {
		t.Fatalf("measured queries were not reverse warm hits: %+v -> %+v", base, after)
	}
}

// TestEarlySeedsStayBounded: an Early agent's first query sets up the
// forward cache, and the reverse cache answers every query after it. Sync
// keeps collecting forward seeds all the while, so without a reset they
// outgrow the graph; they must stay within its vertex count, and every
// answer must still equal a fresh build.
func TestEarlySeedsStayBounded(t *testing.T) {
	cfg := workload.DefaultConfig(3)
	cfg.Procs = 5
	in := workload.MustGenerate(cfg)
	r, err := in.Simulate(sim.NewRandom(7))
	if err != nil {
		t.Fatal(err)
	}
	p := in.Net.Procs()[0]
	var (
		online *Online
		h      *Handle
		target run.GeneralNode
		states int
	)
	replayViews(t, r, p, func(k int, v *run.View) {
		if online == nil {
			ts := earlyTargets(v)
			if len(ts) == 0 {
				return
			}
			target = ts[0]
			online = NewOnline(v)
			var err error
			if h, err = NewShared(in.Net).NewHandle(v); err != nil {
				t.Fatal(err)
			}
		}
		fresh, err := NewExtendedFromView(v)
		if err != nil {
			t.Fatal(err)
		}
		sigma := run.At(v.Origin())
		wantKW, _, wantKnown, wantErr := fresh.KnowledgeWeight(sigma, target)
		if wantErr != nil {
			t.Fatal(wantErr)
		}
		for name, q := range map[string]func(a, b run.GeneralNode) (int, bool, error){
			"online": online.KnowledgeWeight, "handle": h.KnowledgeWeight,
		} {
			kw, known, err := q(sigma, target)
			if err != nil || known != wantKnown || (known && kw != wantKW) {
				t.Fatalf("%s at p%d#%d: (%d,%v,%v), fresh (%d,%v)", name, p, k, kw, known, err, wantKW, wantKnown)
			}
		}
		if n := online.NumVertices(); len(online.seeds) > n {
			t.Fatalf("online at p%d#%d: %d seeds over %d vertices", p, k, len(online.seeds), n)
		}
		if n := h.shared.g.N(); len(h.seeds) > n || len(h.admitted) > n {
			t.Fatalf("handle at p%d#%d: %d seeds, %d admitted over %d vertices", p, k, len(h.seeds), len(h.admitted), n)
		}
		states++
	})
	if online == nil || states < 50 {
		t.Fatalf("fixture too short: %d states", states)
	}
	for name, st := range map[string]HandleStats{"online": online.Stats(), "handle": h.Stats()} {
		if st.RevHits == 0 {
			t.Fatalf("%s: the reverse cache never answered: %+v", name, st)
		}
	}
	t.Logf("%d states, %d vertices", states, online.NumVertices())
}
