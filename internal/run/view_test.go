package run

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/clockless/zigzag/internal/model"
)

func TestViewOfMatchesPast(t *testing.T) {
	r := chainRun(t)
	sigma := BasicNode{Proc: 3, Index: 1}
	v, err := ViewOf(r, sigma)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := r.Past(sigma)
	if err != nil {
		t.Fatal(err)
	}
	if v.Size() != ps.Size() {
		t.Errorf("view size %d, past size %d", v.Size(), ps.Size())
	}
	for _, n := range ps.Nodes() {
		if !v.Contains(n) {
			t.Errorf("view missing %s", n)
		}
	}
	if !v.PastSet().Equal(ps) {
		t.Error("PastSet round trip differs")
	}
	if v.Origin() != sigma {
		t.Errorf("origin = %s", v.Origin())
	}
}

func TestViewDeliveriesAndLeaving(t *testing.T) {
	r := chainRun(t)
	// At node 2#1 the message to 3 has left the past.
	v, err := ViewOf(r, BasicNode{Proc: 2, Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds := v.Deliveries()
	if len(ds) != 1 || ds[0].From.Proc != 1 || ds[0].To.Proc != 2 {
		t.Errorf("deliveries = %v", ds)
	}
	leaving := v.Leaving()
	if len(leaving) != 1 || leaving[0].From.Proc != 2 || leaving[0].To != 3 {
		t.Errorf("leaving = %v", leaving)
	}
	if to, ok := v.DeliveryTo(BasicNode{Proc: 1, Index: 1}, 2); !ok || to.Proc != 2 {
		t.Errorf("DeliveryTo = %v, %v", to, ok)
	}
	if _, ok := v.DeliveryTo(BasicNode{Proc: 2, Index: 1}, 3); ok {
		t.Error("escaped delivery visible inside the view")
	}
	for _, from := range []BasicNode{{Proc: 1, Index: -1}, {Proc: 1, Index: 1 << 60}, {Proc: 0, Index: 1}, {Proc: 9, Index: 1}} {
		if _, ok := v.DeliveryTo(from, 2); ok {
			t.Errorf("DeliveryTo(%s, 2) found a delivery outside the view", from)
		}
	}
}

func TestViewResolvePrefix(t *testing.T) {
	r := chainRun(t)
	v, err := ViewOf(r, BasicNode{Proc: 2, Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	theta := Via(BasicNode{Proc: 1, Index: 1}, model.Path{1, 2, 3})
	prefix, hops := v.ResolvePrefix(theta)
	if hops != 1 || len(prefix) != 2 {
		t.Errorf("prefix = %v, hops = %d", prefix, hops)
	}
}

func TestViewExternals(t *testing.T) {
	r := chainRun(t)
	v, err := ViewOf(r, BasicNode{Proc: 3, Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	node, ok := v.FindExternal(1, "go")
	if !ok || node != (BasicNode{Proc: 1, Index: 1}) {
		t.Errorf("FindExternal = %v, %v", node, ok)
	}
	if _, ok := v.FindExternal(1, "halt"); ok {
		t.Error("phantom external found")
	}
	if labels := v.ExternalsAt(node); len(labels) != 1 || labels[0] != "go" {
		t.Errorf("ExternalsAt = %v", labels)
	}
}

// TestFindExternalIndexKeepsEarliest pins the indexed FindExternal against
// its old linear-scan semantics: the answer is the earliest node of the
// process carrying the label, even when merge order records a later
// occurrence first, and clones keep an independent index.
func TestFindExternalIndexKeepsEarliest(t *testing.T) {
	net := model.MustComplete(2, 1, 2)
	v := NewLocalView(net, 1)
	v.members[0] = 3
	v.recordExternal(BasicNode{Proc: 1, Index: 3}, "go")
	if n, ok := v.FindExternal(1, "go"); !ok || n.Index != 3 {
		t.Fatalf("FindExternal = %v, %v", n, ok)
	}
	// A merge later surfaces an earlier occurrence of the same label.
	v.recordExternal(BasicNode{Proc: 1, Index: 2}, "go")
	if n, ok := v.FindExternal(1, "go"); !ok || n.Index != 2 {
		t.Fatalf("after earlier record: FindExternal = %v, %v", n, ok)
	}
	// Later occurrences never displace the earliest.
	v.recordExternal(BasicNode{Proc: 1, Index: 3}, "go") // duplicate: ignored
	v.members[1] = 1
	v.recordExternal(BasicNode{Proc: 2, Index: 1}, "go") // other process
	if n, _ := v.FindExternal(1, "go"); n.Index != 2 {
		t.Fatalf("earliest displaced: %v", n)
	}
	if _, ok := v.FindExternal(2, "halt"); ok {
		t.Fatal("phantom label found")
	}
	c := v.Clone()
	v.recordExternal(BasicNode{Proc: 1, Index: 1}, "go")
	if n, _ := c.FindExternal(1, "go"); n.Index != 2 {
		t.Fatalf("clone index aliases the original: %v", n)
	}
	if n, _ := v.FindExternal(1, "go"); n.Index != 1 {
		t.Fatalf("original index stale: %v", n)
	}
}

func TestViewAbsorbMatchesOffline(t *testing.T) {
	// Manually replay the chain run's receipts on local views and compare
	// with ViewOf at every step.
	r := chainRun(t)
	net := r.Net()
	v1 := NewLocalView(net, 1)
	n1, err := v1.Absorb(nil, []string{"go"})
	if err != nil {
		t.Fatal(err)
	}
	if n1 != (BasicNode{Proc: 1, Index: 1}) {
		t.Errorf("node = %s", n1)
	}
	v2 := NewLocalView(net, 2)
	if _, err := v2.Absorb([]Receipt{{From: n1, Payload: v1.Snapshot()}}, nil); err != nil {
		t.Fatal(err)
	}
	want, err := ViewOf(r, BasicNode{Proc: 2, Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !v2.PastSet().Equal(want.PastSet()) {
		t.Error("accumulated view disagrees with extracted view")
	}
	v3 := NewLocalView(net, 3)
	if _, err := v3.Absorb([]Receipt{{From: BasicNode{Proc: 2, Index: 1}, Payload: v2.Snapshot()}}, nil); err != nil {
		t.Fatal(err)
	}
	want3, err := ViewOf(r, BasicNode{Proc: 3, Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !v3.PastSet().Equal(want3.PastSet()) {
		t.Error("two-hop accumulated view disagrees")
	}
}

func TestAbsorbRejectsUncoveredSender(t *testing.T) {
	net := model.MustComplete(2, 1, 2)
	v := NewLocalView(net, 2)
	// A receipt claiming to come from a node its own payload doesn't cover.
	_, err := v.Absorb([]Receipt{{From: BasicNode{Proc: 1, Index: 5}, Payload: NewLocalView(net, 1).Snapshot()}}, nil)
	if err == nil {
		t.Fatal("uncovered sender accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	net := model.MustComplete(2, 1, 2)
	v := NewLocalView(net, 1)
	if _, err := v.Absorb(nil, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	c := v.Clone()
	if _, err := v.Absorb(nil, []string{"b"}); err != nil {
		t.Fatal(err)
	}
	if c.Contains(BasicNode{Proc: 1, Index: 2}) {
		t.Error("clone aliases the original's membership")
	}
	if c.Size() != 2 {
		t.Errorf("clone size = %d, want 2", c.Size())
	}

	// The dense delivery rows are copied too: a delivery recorded into an
	// existing row slot of the original stays invisible to the clone.
	net3 := model.MustComplete(3, 1, 2)
	v1 := NewLocalView(net3, 1)
	n1, err := v1.Absorb(nil, []string{"go"})
	if err != nil {
		t.Fatal(err)
	}
	v2 := NewLocalView(net3, 2)
	if _, err := v2.Absorb([]Receipt{{From: n1, Payload: v1.Snapshot()}}, nil); err != nil {
		t.Fatal(err)
	}
	c2 := v2.Clone()
	v3 := NewLocalView(net3, 3)
	n3, err := v3.Absorb([]Receipt{{From: n1, Payload: v1.Snapshot()}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v2.Absorb([]Receipt{{From: n3, Payload: v3.Snapshot()}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := v2.DeliveryTo(n1, 3); !ok {
		t.Fatal("original lost the merged delivery")
	}
	if _, ok := c2.DeliveryTo(n1, 3); ok {
		t.Error("clone aliases the original's delivery rows")
	}
	if got, ok := c2.DeliveryTo(n1, 2); !ok || got != (BasicNode{Proc: 2, Index: 1}) {
		t.Errorf("clone DeliveryTo(n1, 2) = %s, %v", got, ok)
	}
}

// viewState is the observable state a rejected Absorb must leave alone.
type viewState struct {
	origin     BasicNode
	size, dels int
	fp         uint64
}

func stateOf(v *View) viewState {
	return viewState{v.Origin(), v.Size(), v.DeliveryCount(), v.Fingerprint()}
}

// TestRejectedAbsorbLeavesViewUnchanged: Absorb validates the whole batch
// before it changes anything, so every rejected batch — including one
// whose first receipts are valid — leaves the origin, membership, log and
// fingerprint untouched, and the view keeps evolving exactly like a twin
// that never saw the rejected batch.
func TestRejectedAbsorbLeavesViewUnchanged(t *testing.T) {
	net := model.MustComplete(2, 1, 2)
	other := model.MustComplete(3, 1, 2)
	sender := NewLocalView(net, 1)
	n1, err := sender.Absorb(nil, []string{"go"})
	if err != nil {
		t.Fatal(err)
	}
	honest := sender.Snapshot()
	forged := BasicNode{Proc: 1, Index: 50}
	cases := []struct {
		name  string
		batch []Receipt
		want  string
	}{
		{"uncovered sender, honest payload", []Receipt{{From: forged, Payload: honest}}, "not covered"},
		{"uncovered sender, no payload", []Receipt{{From: forged}}, "not covered"},
		{"out-of-range process", []Receipt{{From: BasicNode{Proc: 9, Index: 1}, Payload: honest}}, "not covered"},
		{"cross-network payload", []Receipt{{From: n1, Payload: NewLocalView(other, 1).Snapshot()}}, "different networks"},
		{"valid receipt then uncovered", []Receipt{{From: n1, Payload: honest}, {From: forged, Payload: honest}}, "not covered"},
		{"valid receipt then cross-network", []Receipt{{From: n1, Payload: honest},
			{From: n1, Payload: NewLocalView(other, 2).Snapshot()}}, "different networks"},
	}
	for _, tc := range cases {
		v, twin := NewLocalView(net, 2), NewLocalView(net, 2)
		for _, w := range []*View{v, twin} {
			if _, err := w.Absorb(nil, []string{"tick"}); err != nil {
				t.Fatal(err)
			}
		}
		before := stateOf(v)
		if _, err := v.Absorb(tc.batch, []string{"x"}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if after := stateOf(v); after != before {
			t.Fatalf("%s: rejected Absorb changed the view: %+v -> %+v", tc.name, before, after)
		}
		for _, w := range []*View{v, twin} {
			if _, err := w.Absorb([]Receipt{{From: n1, Payload: honest}}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if stateOf(v) != stateOf(twin) {
			t.Fatalf("%s: view diverged from its twin after the rejection: %+v vs %+v",
				tc.name, stateOf(v), stateOf(twin))
		}
	}
}

// TestAbsorbDedupsBatchDuplicates: the same sender node twice in one batch
// is one message, logged once — the dense index catches duplicates the
// frontier check cannot (the receiving node is new).
func TestAbsorbDedupsBatchDuplicates(t *testing.T) {
	net := model.MustComplete(2, 1, 2)
	sender := NewLocalView(net, 1)
	n1, err := sender.Absorb(nil, []string{"go"})
	if err != nil {
		t.Fatal(err)
	}
	rc := Receipt{From: n1, Payload: sender.Snapshot()}
	v, twin := NewLocalView(net, 2), NewLocalView(net, 2)
	if _, err := v.Absorb([]Receipt{rc, rc}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := twin.Absorb([]Receipt{rc}, nil); err != nil {
		t.Fatal(err)
	}
	if v.DeliveryCount() != 1 {
		t.Fatalf("duplicate receipt logged %d deliveries, want 1", v.DeliveryCount())
	}
	if v.Fingerprint() != twin.Fingerprint() {
		t.Fatal("duplicate receipt moved the fingerprint")
	}
}

// TestOlderSnapshotAfterNewerAddsNothing: over non-FIFO channels an older
// snapshot of a source can arrive after a newer one. Everything it carries
// lies behind the view's frontier, so merging it records nothing beyond the
// receipt's own delivery — whether it arrives in a later batch or in the
// same batch as the newer snapshot.
func TestOlderSnapshotAfterNewerAddsNothing(t *testing.T) {
	net := model.MustComplete(3, 1, 4)
	sender := NewLocalView(net, 1)
	s1, err := sender.Absorb(nil, []string{"go"})
	if err != nil {
		t.Fatal(err)
	}
	early := sender.Snapshot()
	relay := NewLocalView(net, 2)
	r1, err := relay.Absorb([]Receipt{{From: s1, Payload: early}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sender.Absorb([]Receipt{{From: r1, Payload: relay.Snapshot()}}, []string{"more"})
	if err != nil {
		t.Fatal(err)
	}
	late := sender.Snapshot()

	// The older snapshot in a later batch vs a bare receipt.
	v, twin := NewLocalView(net, 3), NewLocalView(net, 3)
	for _, w := range []*View{v, twin} {
		if _, err := w.Absorb([]Receipt{{From: s2, Payload: late}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.Absorb([]Receipt{{From: s1, Payload: early}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := twin.Absorb([]Receipt{{From: s1}}, nil); err != nil {
		t.Fatal(err)
	}
	if stateOf(v) != stateOf(twin) || len(v.extLog) != len(twin.extLog) {
		t.Fatalf("older snapshot added content: %+v vs %+v", stateOf(v), stateOf(twin))
	}

	// Both snapshots in one batch, newer first.
	b, bTwin := NewLocalView(net, 3), NewLocalView(net, 3)
	if _, err := b.Absorb([]Receipt{{From: s2, Payload: late}, {From: s1, Payload: early}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := bTwin.Absorb([]Receipt{{From: s2, Payload: late}, {From: s1}}, nil); err != nil {
		t.Fatal(err)
	}
	if stateOf(b) != stateOf(bTwin) {
		t.Fatalf("older snapshot in the same batch added content: %+v vs %+v", stateOf(b), stateOf(bTwin))
	}
}

// TestMergeBehindFrontierAllocatesNothing: merging a snapshot whose every
// delivery is already in the view (here: the view's own content, through a
// clone with no watermark for it) costs only the frontier checks — no
// index probe, no allocation.
func TestMergeBehindFrontierAllocatesNothing(t *testing.T) {
	net := model.MustComplete(4, 1, 3)
	r, err := buildRandomRun(net, 5)
	if err != nil {
		t.Fatal(err)
	}
	var last *View
	for _, p := range net.Procs() {
		w, err := ViewOf(r, BasicNode{Proc: p, Index: r.LastIndex(p)})
		if err != nil {
			t.Fatal(err)
		}
		if last == nil || w.DeliveryCount() > last.DeliveryCount() {
			last = w
		}
	}
	if last.DeliveryCount() < 10 {
		t.Fatalf("fixture too small: %d deliveries", last.DeliveryCount())
	}
	s := last.Snapshot()
	v := last.Clone()
	before := stateOf(v)
	allocs := testing.AllocsPerRun(50, func() {
		delete(v.merged, s.source) // force a full rescan of s's log
		v.merge(s)
	})
	if allocs != 0 {
		t.Errorf("merge behind the frontier: %v allocs, want 0", allocs)
	}
	if stateOf(v) != before {
		t.Errorf("merge behind the frontier changed the view: %+v -> %+v", before, stateOf(v))
	}
}

// TestPastIsPClosedProperty: past sets computed on random simulated runs are
// precedence-closed: the sender of every delivery received inside is inside.
func TestPastIsPClosedProperty(t *testing.T) {
	f := func(seed int64) bool {
		net := model.MustComplete(4, 1, 3)
		r, err := buildRandomRun(net, seed)
		if err != nil {
			return false
		}
		for _, p := range net.Procs() {
			k := r.LastIndex(p)
			if k == 0 {
				continue
			}
			ps, err := r.Past(BasicNode{Proc: p, Index: k})
			if err != nil {
				return false
			}
			for _, d := range r.Deliveries() {
				if ps.Contains(d.To) && !ps.Contains(d.From) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
