package run_test

import (
	"slices"
	"testing"

	"github.com/clockless/zigzag/internal/faults"
	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
)

// absorbEveryNode replays r's receive batches in global (time, process)
// order into one Absorb-built view per process — payloads are the senders'
// snapshots at send time, the structure the live engines produce — calling
// check at every new node.
func absorbEveryNode(t *testing.T, r *run.Run, check func(node run.BasicNode, v *run.View)) {
	t.Helper()
	net := r.Net()
	views := make([]*run.View, net.N())
	for _, p := range net.Procs() {
		views[p-1] = run.NewLocalView(net, p)
	}
	snaps := make(map[run.BasicNode]*run.Snapshot)
	for t0 := model.Time(1); t0 <= r.Horizon(); t0++ {
		for _, p := range net.Procs() {
			node := r.NodeAt(p, t0)
			if node.IsInitial() || r.MustTime(node) != t0 {
				continue
			}
			var receipts []run.Receipt
			for _, d := range r.Inbox(node) {
				receipts = append(receipts, run.Receipt{From: d.From, Payload: snaps[d.From]})
			}
			var labels []string
			for _, e := range r.ExternalsAt(node) {
				labels = append(labels, e.Label)
			}
			got, err := views[p-1].Absorb(receipts, labels)
			if err != nil {
				t.Fatalf("absorb at %s: %v", node, err)
			}
			if got != node {
				t.Fatalf("absorb produced %s, run has %s", got, node)
			}
			snaps[node] = views[p-1].Snapshot()
			check(node, views[p-1])
		}
	}
}

// arrivals strips the deliveries into one node to what a view stores.
func arrivals(ds []run.Delivery) []run.Arrival {
	out := make([]run.Arrival, len(ds))
	for i, d := range ds {
		out[i] = run.Arrival{From: d.From, Chan: d.Chan}
	}
	return out
}

// requireMatchesOffline compares an Absorb-built view with ViewOf on every
// structural query: membership, each member's Inbox (also against the run's
// own Inbox, reduced to arrivals) and ExternalsAt, DeliveryTo on every member
// node and out-arc, FindExternal on every label of the run, Deliveries and
// Leaving.
func requireMatchesOffline(t *testing.T, label string, r *run.Run, node run.BasicNode, v *run.View) {
	t.Helper()
	want, err := run.ViewOf(r, node)
	if err != nil {
		t.Fatalf("%s: ViewOf(%s): %v", label, node, err)
	}
	if !v.PastSet().Equal(want.PastSet()) {
		t.Fatalf("%s at %s: membership differs", label, node)
	}
	net := r.Net()
	for _, p := range net.Procs() {
		b, ok := want.Boundary(p)
		if !ok {
			continue
		}
		for k := 0; k <= b.Index; k++ {
			from := run.BasicNode{Proc: p, Index: k}
			g, w := v.Inbox(from), want.Inbox(from)
			if !slices.Equal(g, w) || !slices.Equal(w, arrivals(r.Inbox(from))) {
				t.Fatalf("%s at %s: Inbox(%s) = %v; ViewOf has %v, the run %v",
					label, node, from, g, w, r.Inbox(from))
			}
			if g, w := v.ExternalsAt(from), want.ExternalsAt(from); !slices.Equal(g, w) {
				t.Fatalf("%s at %s: ExternalsAt(%s) = %v; ViewOf has %v", label, node, from, g, w)
			}
			for _, a := range net.OutArcs(p) {
				g, gok := v.DeliveryTo(from, a.To)
				w, wok := want.DeliveryTo(from, a.To)
				if g != w || gok != wok {
					t.Fatalf("%s at %s: DeliveryTo(%s, %d) = %s,%v; ViewOf has %s,%v",
						label, node, from, a.To, g, gok, w, wok)
				}
			}
		}
	}
	for _, e := range r.Externals() {
		for _, p := range net.Procs() {
			g, gok := v.FindExternal(p, e.Label)
			w, wok := want.FindExternal(p, e.Label)
			if g != w || gok != wok {
				t.Fatalf("%s at %s: FindExternal(%d, %q) = %s,%v; ViewOf has %s,%v",
					label, node, p, e.Label, g, gok, w, wok)
			}
		}
	}
	if g, w := v.Deliveries(), want.Deliveries(); !slices.Equal(g, w) {
		t.Fatalf("%s at %s: Deliveries differ:\n %v\n %v", label, node, g, w)
	}
	if g, w := v.Leaving(), want.Leaving(); !slices.Equal(g, w) {
		t.Fatalf("%s at %s: Leaving differs:\n %v\n %v", label, node, g, w)
	}
}

// TestAbsorbMatchesOfflineOnFamilies extends TestViewAbsorbMatchesOffline
// to the random topologies, the largest multi-agent coordination run and a
// fault-injected recording (built through Builder.Tolerate, so latencies
// may leave their bounds): at every node, the Absorb-built view answers
// every structural query exactly as ViewOf does (requireMatchesOffline).
func TestAbsorbMatchesOfflineOnFamilies(t *testing.T) {
	type recording struct {
		label string
		r     *run.Run
	}
	var recs []recording
	for _, sc := range scenario.RandomFamily() {
		for _, pol := range []sim.Policy{sim.Eager{}, sim.NewRandom(17)} {
			recs = append(recs, recording{sc.Name + "/" + pol.Name(), sc.MustSimulate(pol)})
		}
	}
	m16 := scenario.MultiAgent(16)
	recs = append(recs, recording{m16.Name + "/random", m16.MustSimulate(sim.NewRandom(3))})

	faulty := scenario.MultiAgentFaulty(4, "chaos")
	plan, err := faults.NewPlan(faulty.FaultFamily, faulty.Net, faulty.Horizon, 2)
	if err != nil {
		t.Fatal(err)
	}
	fr, rep, err := sim.SimulateFaulty(sim.Config{
		Net: faulty.Net, Horizon: faulty.Horizon, Policy: sim.NewRandom(2),
		Externals: faulty.Externals, Faults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("faulted recording violates no bound; pick a plan that does")
	}
	recs = append(recs, recording{faulty.Name + "/random", fr})

	for _, rc := range recs {
		nodes := 0
		absorbEveryNode(t, rc.r, func(node run.BasicNode, v *run.View) {
			requireMatchesOffline(t, rc.label, rc.r, node, v)
			nodes++
		})
		if nodes == 0 {
			t.Fatalf("%s: no node checked", rc.label)
		}
		t.Logf("%s: %d nodes", rc.label, nodes)
	}
}
