package run

import (
	"slices"
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

// TestFindExternalIndexKeepsEarliest pins the lazily indexed FindExternal
// against its linear-scan semantics: the answer is the earliest node of the
// process carrying the label, however many later nodes carry it too and in
// however many steps the view learned them, and a clone keeps an
// independent index.
func TestFindExternalIndexKeepsEarliest(t *testing.T) {
	net := model.MustComplete(2, 1, 2)
	sender := NewLocalView(net, 1)
	v := NewLocalView(net, 2)
	absorb := func(w *View, labels ...string) BasicNode {
		t.Helper()
		n, err := w.Absorb(nil, labels)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	receive := func(from BasicNode, labels ...string) {
		t.Helper()
		if _, err := v.Absorb([]Receipt{{From: from, Payload: sender.Snapshot()}}, labels); err != nil {
			t.Fatal(err)
		}
	}
	receive(absorb(sender, "tick"))
	if _, ok := v.FindExternal(1, "go"); ok {
		t.Fatal("label found before it was absorbed")
	}
	c := v.Clone()
	absorb(sender, "go", "go") // p1#2; the duplicate label is one input
	receive(absorb(sender, "go"), "go")
	if n, ok := v.FindExternal(1, "go"); !ok || n != (BasicNode{Proc: 1, Index: 2}) {
		t.Fatalf("FindExternal = %v, %v", n, ok)
	}
	if got := v.ExternalsAt(BasicNode{Proc: 1, Index: 2}); !slices.Equal(got, []string{"go"}) {
		t.Fatalf("ExternalsAt(p1#2) = %v", got)
	}
	if n, ok := v.FindExternal(2, "go"); !ok || n != (BasicNode{Proc: 2, Index: 2}) {
		t.Fatalf("own FindExternal = %v, %v", n, ok)
	}
	if _, ok := v.FindExternal(2, "halt"); ok {
		t.Fatal("phantom label found")
	}
	if _, ok := c.FindExternal(1, "go"); ok {
		t.Fatal("clone index aliases the original")
	}
	receive(absorb(sender, "go"))
	if n, _ := v.FindExternal(1, "go"); n.Index != 2 {
		t.Fatalf("earliest displaced: %v", n)
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

// TestRejectedAbsorbLeavesViewUnchanged: Absorb validates the whole batch
// before it changes anything, so every rejected batch — including one
// whose first receipts are valid — leaves the view's content untouched, and the view keeps evolving exactly like a twin
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
	// A payload that knows p2#1 and p2#2, more than p2 has lived through
	// when the receiving view below is at p2#1.
	ahead := NewLocalView(net, 2)
	for i := 0; i < 2; i++ {
		if _, err := ahead.Absorb(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	future := ahead.Snapshot()
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
		{"payload ahead of the receiver", []Receipt{{From: n1, Payload: honest},
			{From: n1, Payload: future}}, "beyond"},
	}
	for _, tc := range cases {
		v, twin := NewLocalView(net, 2), NewLocalView(net, 2)
		for _, w := range []*View{v, twin} {
			if _, err := w.Absorb(nil, []string{"tick"}); err != nil {
				t.Fatal(err)
			}
		}
		before := contentOf(v)
		if _, err := v.Absorb(tc.batch, []string{"x"}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if after := contentOf(v); !after.equal(before) {
			t.Fatalf("%s: rejected Absorb changed the view: %+v -> %+v", tc.name, before, after)
		}
		for _, w := range []*View{v, twin} {
			if _, err := w.Absorb([]Receipt{{From: n1, Payload: honest}}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if !contentOf(v).equal(contentOf(twin)) {
			t.Fatalf("%s: view diverged from its twin after the rejection: %+v vs %+v",
				tc.name, contentOf(v), contentOf(twin))
		}
	}
}

// TestAbsorbDedupsBatchDuplicates: the same sender node twice in one batch
// is one message, stored once — the index of the view's own deliveries
// catches it, and a message delivered again in a later batch keeps its
// first delivery.
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
	if got := v.Inbox(v.Origin()); len(got) != 1 {
		t.Fatalf("duplicate receipt stored %d deliveries, want 1", len(got))
	}
	if !contentOf(v).equal(contentOf(twin)) {
		t.Fatal("duplicate receipt changed the content")
	}
	again, err := v.Absorb([]Receipt{rc}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Inbox(again); len(got) != 0 {
		t.Fatalf("re-delivered message stored again: %v", got)
	}
	if got, ok := v.DeliveryTo(n1, 2); !ok || got != (BasicNode{Proc: 2, Index: 1}) {
		t.Fatalf("DeliveryTo(n1, 2) = %s, %v; want the first delivery", got, ok)
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
	if !contentOf(v).equal(contentOf(twin)) {
		t.Fatalf("older snapshot added content: %+v vs %+v", contentOf(v), contentOf(twin))
	}

	// Both snapshots in one batch, newer first.
	b, bTwin := NewLocalView(net, 3), NewLocalView(net, 3)
	if _, err := b.Absorb([]Receipt{{From: s2, Payload: late}, {From: s1, Payload: early}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := bTwin.Absorb([]Receipt{{From: s2, Payload: late}, {From: s1}}, nil); err != nil {
		t.Fatal(err)
	}
	if !contentOf(b).equal(contentOf(bTwin)) {
		t.Fatalf("older snapshot in the same batch added content: %+v vs %+v", contentOf(b), contentOf(bTwin))
	}
}

// TestMergeBehindFrontierAllocatesNothing: merging a snapshot costs one
// length comparison per process and allocates nothing — whether every
// prefix it carries is already in the view (here: the view's own content,
// through a clone) or it advances them (every node's snapshot merged into a
// fresh view).
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
		if last == nil || w.Size() > last.Size() {
			last = w
		}
	}
	if n := len(last.Deliveries()); n < 10 {
		t.Fatalf("fixture too small: %d deliveries", n)
	}
	s := last.Snapshot()
	v := last.Clone()
	before := contentOf(v)
	if allocs := testing.AllocsPerRun(50, func() { v.merge(s) }); allocs != 0 {
		t.Errorf("merge behind the frontier: %v allocs, want 0", allocs)
	}
	if !contentOf(v).equal(before) {
		t.Errorf("merge behind the frontier changed the view: %+v -> %+v", before, contentOf(v))
	}

	fresh := NewLocalView(net, 1)
	start := slices.Clone(fresh.tl)
	merged := 0
	for _, p := range net.Procs() {
		for k := 0; k <= r.LastIndex(p); k++ {
			w, err := ViewOf(r, BasicNode{Proc: p, Index: k})
			if err != nil {
				t.Fatal(err)
			}
			s := w.Snapshot()
			allocs := testing.AllocsPerRun(5, func() {
				copy(fresh.tl, start)
				fresh.merge(s)
			})
			if allocs != 0 {
				t.Fatalf("merging the snapshot of %s: %v allocs, want 0", w.Origin(), allocs)
			}
			if fresh.Size() < w.Size() {
				t.Fatalf("merging the snapshot of %s: size %d, want >= %d", w.Origin(), fresh.Size(), w.Size())
			}
			merged++
		}
	}
	if merged < 10 {
		t.Fatalf("fixture too small: %d snapshots", merged)
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
