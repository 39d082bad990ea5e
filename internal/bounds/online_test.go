package bounds

import (
	"errors"
	"fmt"
	"testing"

	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/workload"
)

// replayViews reconstructs, from a recorded run, the exact view evolution
// process p's goroutine would see live: for each state k >= 1 it absorbs
// the recorded inbox (with the senders' views at their send nodes as
// payload snapshots) and externals, and calls visit with the shared,
// mutating view. This is the offline stand-in for a live process that lets
// tests walk every state deterministically.
func replayViews(t *testing.T, r *run.Run, p model.ProcID, visit func(k int, v *run.View)) {
	t.Helper()
	payloads := make(map[run.BasicNode]*run.Snapshot)
	view := run.NewLocalView(r.Net(), p)
	for k := 1; k <= r.LastIndex(p); k++ {
		node := run.BasicNode{Proc: p, Index: k}
		var receipts []run.Receipt
		for _, d := range r.Inbox(node) {
			snap, ok := payloads[d.From]
			if !ok {
				pv, err := run.ViewOf(r, d.From)
				if err != nil {
					t.Fatal(err)
				}
				snap = pv.Snapshot()
				payloads[d.From] = snap
			}
			receipts = append(receipts, run.Receipt{From: d.From, Payload: snap})
		}
		var labels []string
		for _, e := range r.ExternalsAt(node) {
			labels = append(labels, e.Label)
		}
		if _, err := view.Absorb(receipts, labels); err != nil {
			t.Fatal(err)
		}
		visit(k, view)
	}
}

// queryNodes picks the query endpoints for one state: the origin itself and
// every non-initial boundary node of the view, plus one-hop general nodes
// off each of them (whose chains routinely leave the past, exercising the
// beyond-horizon chain vertices).
func queryNodes(v *run.View) []run.GeneralNode {
	net := v.Net()
	var out []run.GeneralNode
	add := func(b run.BasicNode) {
		out = append(out, run.At(b))
		if arcs := net.OutArcs(b.Proc); len(arcs) > 0 {
			out = append(out, run.At(b).Hop(arcs[0].To))
			if len(arcs) > 1 {
				out = append(out, run.At(b).Hop(arcs[len(arcs)-1].To))
			}
		}
	}
	add(v.Origin())
	for p := model.ProcID(1); int(p) <= net.N(); p++ {
		if len(out) >= 9 {
			break // enough pairs per state; the state loop supplies volume
		}
		if bnd, ok := v.Boundary(p); ok && !bnd.IsInitial() && bnd != v.Origin() {
			add(bnd)
		}
	}
	return out
}

// TestOnlineMatchesFreshBuild is the engine's differential acceptance test:
// on every state of random scenarios, every knowledge answer of the
// incrementally maintained graph — knowledge weight, knownness and error
// class, over basic and chain-crossing general node pairs, in both
// directions — is identical to a fresh NewExtendedFromView of the same
// view.
func TestOnlineMatchesFreshBuild(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		cfg := workload.DefaultConfig(seed)
		cfg.Procs = 4 + int(seed%3)
		in := workload.MustGenerate(cfg)
		r, err := in.Simulate(sim.NewRandom(seed * 13))
		if err != nil {
			t.Fatal(err)
		}
		// Two observers per run keep the state loop quadratic work bounded;
		// different seeds rotate which processes observe.
		procs := in.Net.Procs()
		observers := []model.ProcID{procs[int(seed)%len(procs)], procs[(int(seed)+2)%len(procs)]}
		for _, p := range observers {
			if r.LastIndex(p) == 0 {
				continue
			}
			var eng *Online
			// fixed is a source queried both last and first around every
			// state transition, so the warm-started RelaxFrom path — cached
			// distances re-relaxed across a sync that added and removed
			// edges — is exercised and compared at every state.
			fixed := run.At(run.BasicNode{Proc: p, Index: 1})
			replayViews(t, r, p, func(k int, v *run.View) {
				if eng == nil {
					eng = NewOnline(v)
				}
				fresh, err := NewExtendedFromView(v)
				if err != nil {
					t.Fatal(err)
				}
				qs := append([]run.GeneralNode{fixed}, queryNodes(v)...)
				qs = append(qs, fixed)
				for i, t1 := range qs {
					for j, t2 := range qs {
						if i == j && t1.IsBasic() {
							continue
						}
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
				}
			})
		}
	}
}

// TestOnlineQueriesAreRepeatable: speculative chain vertices roll back
// completely, so asking the same question twice (and interleaving other
// questions) never changes an answer within one state.
func TestOnlineQueriesAreRepeatable(t *testing.T) {
	in := workload.MustGenerate(workload.DefaultConfig(3))
	r, err := in.Simulate(sim.NewRandom(5))
	if err != nil {
		t.Fatal(err)
	}
	p := in.Net.Procs()[0]
	if r.LastIndex(p) == 0 {
		t.Skip("process never moves")
	}
	var eng *Online
	replayViews(t, r, p, func(k int, v *run.View) {
		if eng == nil {
			eng = NewOnline(v)
		}
		qs := queryNodes(v)
		type key struct{ i, j int }
		first := make(map[key]string)
		for round := 0; round < 2; round++ {
			for i, t1 := range qs {
				for j, t2 := range qs {
					kw, known, err := eng.KnowledgeWeight(t1, t2)
					got := fmt.Sprintf("%d/%v/%v", kw, known, err)
					if round == 0 {
						first[key{i, j}] = got
					} else if first[key{i, j}] != got {
						t.Fatalf("state %d: %s->%s changed between rounds: %q vs %q",
							k, t1, t2, first[key{i, j}], got)
					}
					if before := eng.NumVertices(); true {
						if kw2, known2, err2 := eng.KnowledgeWeight(t1, t2); kw2 != kw || known2 != known || (err2 == nil) != (err == nil) {
							t.Fatalf("state %d: %s->%s not repeatable", k, t1, t2)
						} else if eng.NumVertices() != before {
							t.Fatalf("state %d: query leaked %d vertices", k, eng.NumVertices()-before)
						}
					}
				}
			}
		}
	})
}

// TestOnlineRejectsUnmodeledChannel mirrors the fresh-build error path: a
// delivery over a channel the network does not model surfaces as
// model.ErrNoChannel from the online engine too — and keeps doing so on
// every retry (every sync checks the view's unmodeled list), matching a fresh
// build's stable answer instead of degrading into an internal error.
func TestOnlineRejectsUnmodeledChannel(t *testing.T) {
	net := model.NewBuilder(3).Chan(1, 2, 1, 2).Chan(2, 3, 1, 2).MustBuild()
	sender := run.NewLocalView(net, 3)
	from, err := sender.Absorb(nil, []string{"go"})
	if err != nil {
		t.Fatal(err)
	}
	receiver := run.NewLocalView(net, 2)
	eng := NewOnline(receiver)
	if _, err := receiver.Absorb([]run.Receipt{{From: from, Payload: sender.Snapshot()}}, nil); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if err := eng.Sync(); !errors.Is(err, model.ErrNoChannel) {
			t.Fatalf("round %d: got %v, want model.ErrNoChannel", round, err)
		}
		sigma := run.At(receiver.Origin())
		if _, _, err := eng.KnowledgeWeight(sigma, sigma); !errors.Is(err, model.ErrNoChannel) {
			t.Fatalf("round %d: query error = %v, want model.ErrNoChannel", round, err)
		}
	}
}
