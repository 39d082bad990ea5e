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
// snapshots at send time, the structure the live engines produce — and into
// the map-keyed reference model, calling check at every new node.
func absorbEveryNode(t *testing.T, r *run.Run, check func(node run.BasicNode, v *run.View, ref *run.RefView)) {
	t.Helper()
	net := r.Net()
	views := make([]*run.View, net.N())
	refs := make([]*run.RefView, net.N())
	for _, p := range net.Procs() {
		views[p-1] = run.NewLocalView(net, p)
		refs[p-1] = run.NewRefView(net, p)
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
			refs[p-1].Absorb(receipts, labels)
			snaps[node] = views[p-1].Snapshot()
			check(node, views[p-1], refs[p-1])
		}
	}
}

// requireMatchesOffline compares an Absorb-built view with ViewOf on every
// structural query, and with the reference model on the recording order.
// The two constructions record in different orders (ViewOf follows the
// run's arrival order, Absorb the merge order), so the fingerprint is
// pinned against the reference model of the Absorb order.
func requireMatchesOffline(t *testing.T, label string, r *run.Run, node run.BasicNode, v *run.View, ref *run.RefView) {
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
	if g, w := v.Deliveries(), want.Deliveries(); !slices.Equal(g, w) {
		t.Fatalf("%s at %s: Deliveries differ:\n %v\n %v", label, node, g, w)
	}
	if g, w := v.Leaving(), want.Leaving(); !slices.Equal(g, w) {
		t.Fatalf("%s at %s: Leaving differs:\n %v\n %v", label, node, g, w)
	}
	if g, w := v.DeliveriesSince(0), ref.Log(); !slices.Equal(g, w) {
		t.Fatalf("%s at %s: log order differs from the reference:\n %v\n %v", label, node, g, w)
	}
	if g, w := v.Fingerprint(), ref.Fingerprint(); g != w {
		t.Fatalf("%s at %s: fingerprint %#x, reference %#x", label, node, g, w)
	}
}

// TestAbsorbMatchesOfflineOnFamilies extends TestViewAbsorbMatchesOffline
// to the random topologies, the largest multi-agent coordination run and a
// fault-injected recording (built through Builder.Tolerate, so latencies
// may leave their bounds): at every node, the dense Absorb-built view
// answers DeliveryTo, Deliveries and Leaving exactly as ViewOf does, and
// records the reference model's log and fingerprint.
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
		absorbEveryNode(t, rc.r, func(node run.BasicNode, v *run.View, ref *run.RefView) {
			requireMatchesOffline(t, rc.label, rc.r, node, v, ref)
			nodes++
		})
		if nodes == 0 {
			t.Fatalf("%s: no node checked", rc.label)
		}
		t.Logf("%s: %d nodes", rc.label, nodes)
	}
}
