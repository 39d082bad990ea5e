package run

import (
	"slices"
	"testing"

	"github.com/clockless/zigzag/internal/model"
)

// TestSnapshotIsImmutable: a snapshot frozen before further growth keeps
// reporting the old content — the property that lets the live engine share
// one payload across every out-arc (and across goroutines) without deep
// copies.
func TestSnapshotIsImmutable(t *testing.T) {
	net := model.MustComplete(3, 1, 2)
	v1 := NewLocalView(net, 1)
	n1, err := v1.Absorb(nil, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	snap := v1.Snapshot()
	// Grow the source past the snapshot: new state, new delivery, new
	// external.
	v2 := NewLocalView(net, 2)
	n2, err := v2.Absorb([]Receipt{{From: n1, Payload: snap}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v1.Absorb([]Receipt{{From: n2, Payload: v2.Snapshot()}}, []string{"b"}); err != nil {
		t.Fatal(err)
	}
	if snap.Contains(BasicNode{Proc: 1, Index: 2}) {
		t.Error("snapshot sees membership growth after freeze")
	}
	if len(snap.tl[0]) != 2 || len(snap.tl[1]) != 0 || len(snap.tl[2]) != 0 {
		t.Errorf("snapshot timelines grew: %v", snap.tl)
	}
	if snap.Origin() != n1 {
		t.Errorf("snapshot origin = %s, want %s", snap.Origin(), n1)
	}
}

// content is everything a view answers about what it holds.
type content struct {
	origin     BasicNode
	past       []int
	deliveries []Delivery
	leaving    []Pending
	externals  [][]string
}

func contentOf(v *View) content {
	c := content{origin: v.Origin(), past: v.PastSet().members, deliveries: v.Deliveries(), leaving: v.Leaving()}
	for i, seg := range v.tl {
		for k := range seg {
			c.externals = append(c.externals, v.ExternalsAt(BasicNode{Proc: model.ProcID(i + 1), Index: k}))
		}
	}
	return c
}

func (c content) equal(d content) bool {
	return c.origin == d.origin && slices.Equal(c.past, d.past) &&
		slices.Equal(c.deliveries, d.deliveries) && slices.Equal(c.leaving, d.leaving) &&
		slices.EqualFunc(c.externals, d.externals, slices.Equal)
}

// TestHeldSnapshotKeepsContent: a snapshot shares its timelines with the
// view it froze and with every view that merged it. Both keep absorbing
// past it — the owner appending to the very arrays the snapshot slices —
// and a view merging the held snapshot afterwards still learns exactly what
// it held when frozen.
func TestHeldSnapshotKeepsContent(t *testing.T) {
	net := model.MustComplete(3, 1, 3)
	v1, v2 := NewLocalView(net, 1), NewLocalView(net, 2)
	n1, err := v1.Absorb(nil, []string{"go"})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := v2.Absorb([]Receipt{{From: n1, Payload: v1.Snapshot()}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n1, err = v1.Absorb([]Receipt{{From: n2, Payload: v2.Snapshot()}}, []string{"more"})
	if err != nil {
		t.Fatal(err)
	}
	held := v1.Snapshot()
	early := NewLocalView(net, 3)
	if _, err := early.Absorb([]Receipt{{From: n1, Payload: held}}, nil); err != nil {
		t.Fatal(err)
	}
	want := contentOf(early)

	// The owner and a view that merged the snapshot both grow past it.
	if _, err := v2.Absorb([]Receipt{{From: n1, Payload: held}}, []string{"x"}); err != nil {
		t.Fatal(err)
	}
	n2, err = v2.Absorb(nil, []string{"y"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if n1, err = v1.Absorb([]Receipt{{From: n2, Payload: v2.Snapshot()}}, []string{"z"}); err != nil {
			t.Fatal(err)
		}
	}

	late := NewLocalView(net, 3)
	if _, err := late.Absorb([]Receipt{{From: held.Origin(), Payload: held}}, nil); err != nil {
		t.Fatal(err)
	}
	if got := contentOf(late); !got.equal(want) {
		t.Fatalf("held snapshot changed:\n %+v\n %+v", got, want)
	}
}

// TestViewInbox: the inboxes of a view's members partition its deliveries,
// each holding the arrivals into its own node with the channel resolved.
func TestViewInbox(t *testing.T) {
	net := model.MustComplete(3, 1, 2)
	sender1 := NewLocalView(net, 1)
	s1, err := sender1.Absorb(nil, []string{"go"})
	if err != nil {
		t.Fatal(err)
	}
	v := NewLocalView(net, 3)
	if got := v.Inbox(BasicNode{Proc: 3}); len(got) != 0 {
		t.Fatalf("initial node has inbox %v", got)
	}
	first, err := v.Absorb([]Receipt{{From: s1, Payload: sender1.Snapshot()}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := v.Inbox(first)
	if len(in) != 1 || in[0].From != s1 || in[0].Chan != net.ChanIDOf(1, 3) {
		t.Errorf("first inbox = %+v", in)
	}
	// A second batch relayed through process 2 adds process 2's node and
	// the relay's delivery; the first inbox is unchanged.
	sender2 := NewLocalView(net, 2)
	s2, err := sender2.Absorb([]Receipt{{From: s1, Payload: sender1.Snapshot()}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := v.Absorb([]Receipt{{From: s2, Payload: sender2.Snapshot()}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(v.Inbox(first), in) {
		t.Errorf("first inbox changed to %v", v.Inbox(first))
	}
	var all []Delivery
	for _, p := range net.Procs() {
		b, ok := v.Boundary(p)
		for k := 0; ok && k <= b.Index; k++ {
			node := BasicNode{Proc: p, Index: k}
			for _, a := range v.Inbox(node) {
				all = append(all, Delivery{From: a.From, To: node, Chan: a.Chan})
			}
		}
	}
	if got := v.Inbox(BasicNode{Proc: 3, Index: second.Index + 1}); got != nil {
		t.Errorf("Inbox of a non-member = %v", got)
	}
	want := v.Deliveries()
	if len(all) != len(want) || len(want) != 3 {
		t.Fatalf("inboxes hold %d deliveries, Deliveries %d, want 3", len(all), len(want))
	}
	for _, d := range want {
		if !slices.Contains(all, d) {
			t.Errorf("delivery %v in no inbox", d)
		}
	}
}

// TestMergeKeepsLongerPrefix: merging takes the longer prefix of each
// timeline, so an out-of-order (non-FIFO) older snapshot merged after a
// newer one adds nothing, and everything the newer one carried stays.
func TestMergeKeepsLongerPrefix(t *testing.T) {
	net := model.MustComplete(3, 1, 4)
	sender := NewLocalView(net, 1)
	s1, err := sender.Absorb(nil, []string{"go"})
	if err != nil {
		t.Fatal(err)
	}
	early := sender.Snapshot() // frozen at state 1
	relay := NewLocalView(net, 2)
	r1, err := relay.Absorb([]Receipt{{From: s1, Payload: early}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sender.Absorb([]Receipt{{From: r1, Payload: relay.Snapshot()}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	late := sender.Snapshot() // frozen at state 2, strictly more content

	v := NewLocalView(net, 3)
	// Newer snapshot first, older second (non-FIFO channel).
	if _, err := v.Absorb([]Receipt{{From: s2, Payload: late}}, nil); err != nil {
		t.Fatal(err)
	}
	sizeAfterLate := v.Size()
	deliveriesAfterLate := len(v.Deliveries())
	if _, err := v.Absorb([]Receipt{{From: s1, Payload: early}}, nil); err != nil {
		t.Fatal(err)
	}
	if v.Size() != sizeAfterLate+1 { // +1: v's own new state only
		t.Errorf("old snapshot changed membership: %d -> %d", sizeAfterLate, v.Size())
	}
	if got := len(v.Deliveries()); got != deliveriesAfterLate+1 { // +1: the s1 -> v receipt itself
		t.Errorf("old snapshot re-recorded deliveries: %d -> %d", deliveriesAfterLate, got)
	}
	// And everything the late snapshot carried is present.
	if _, ok := v.DeliveryTo(s1, 2); !ok {
		t.Error("delivery s1->2 lost")
	}
	if _, ok := v.DeliveryTo(r1, 1); !ok {
		t.Error("delivery r1->1 lost")
	}
}
