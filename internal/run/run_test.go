package run

import (
	"errors"
	"testing"

	"github.com/clockless/zigzag/internal/model"
)

// lineNet is 1 -> 2 -> 3 with bounds [2, 4].
func lineNet(t *testing.T) *model.Network {
	t.Helper()
	return model.NewBuilder(3).Chan(1, 2, 2, 4).Chan(2, 3, 2, 4).MustBuild()
}

// chainRun hand-builds: external to 1 at t=1; 1@1 => 2@3; 2@3 => 3@6.
func chainRun(t *testing.T) *Run {
	t.Helper()
	r, err := NewBuilder(lineNet(t), 20).
		External(ExternalEvent{Proc: 1, Time: 1, Label: "go"}).
		Message(MessageEvent{FromProc: 1, ToProc: 2, SendTime: 1, RecvTime: 3}).
		Message(MessageEvent{FromProc: 2, ToProc: 3, SendTime: 3, RecvTime: 6}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBuilderIndexing(t *testing.T) {
	r := chainRun(t)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	for p := model.ProcID(1); p <= 3; p++ {
		if r.LastIndex(p) != 1 {
			t.Errorf("LastIndex(%d) = %d, want 1", p, r.LastIndex(p))
		}
	}
	if got := r.MustTime(BasicNode{Proc: 2, Index: 1}); got != 3 {
		t.Errorf("time(2#1) = %d, want 3", got)
	}
	if got := r.MustTime(BasicNode{Proc: 3, Index: 0}); got != 0 {
		t.Errorf("time(3#0) = %d, want 0", got)
	}
}

func TestBuilderBatching(t *testing.T) {
	// Two messages arriving at one process at the same instant form one
	// batch, hence one new node.
	net := model.NewBuilder(3).Chan(1, 3, 2, 4).Chan(2, 3, 2, 4).MustBuild()
	r, err := NewBuilder(net, 20).
		External(ExternalEvent{Proc: 1, Time: 1, Label: "a"}).
		External(ExternalEvent{Proc: 2, Time: 1, Label: "b"}).
		Message(MessageEvent{FromProc: 1, ToProc: 3, SendTime: 1, RecvTime: 4}).
		Message(MessageEvent{FromProc: 2, ToProc: 3, SendTime: 1, RecvTime: 4}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if r.LastIndex(3) != 1 {
		t.Fatalf("LastIndex(3) = %d, want 1 (one batch)", r.LastIndex(3))
	}
	inbox := r.Inbox(BasicNode{Proc: 3, Index: 1})
	if len(inbox) != 2 {
		t.Errorf("inbox size %d, want 2", len(inbox))
	}
}

func TestBuilderErrors(t *testing.T) {
	net := lineNet(t)
	cases := []struct {
		name string
		bl   *Builder
	}{
		{"bad channel", NewBuilder(net, 20).
			Message(MessageEvent{FromProc: 3, ToProc: 1, SendTime: 1, RecvTime: 3})},
		{"latency under L", NewBuilder(net, 20).
			External(ExternalEvent{Proc: 1, Time: 1, Label: "x"}).
			Message(MessageEvent{FromProc: 1, ToProc: 2, SendTime: 1, RecvTime: 2})},
		{"latency over U", NewBuilder(net, 20).
			External(ExternalEvent{Proc: 1, Time: 1, Label: "x"}).
			Message(MessageEvent{FromProc: 1, ToProc: 2, SendTime: 1, RecvTime: 9})},
		{"send from initial", NewBuilder(net, 20).
			Message(MessageEvent{FromProc: 1, ToProc: 2, SendTime: 0, RecvTime: 3})},
		{"sender has no node", NewBuilder(net, 20).
			Message(MessageEvent{FromProc: 1, ToProc: 2, SendTime: 5, RecvTime: 8})},
		{"beyond horizon", NewBuilder(net, 4).
			External(ExternalEvent{Proc: 1, Time: 5, Label: "x"})},
		{"duplicate send", NewBuilder(net, 20).
			External(ExternalEvent{Proc: 1, Time: 1, Label: "x"}).
			Message(MessageEvent{FromProc: 1, ToProc: 2, SendTime: 1, RecvTime: 3}).
			Message(MessageEvent{FromProc: 1, ToProc: 2, SendTime: 1, RecvTime: 4})},
	}
	for _, tc := range cases {
		if _, err := tc.bl.Build(); err == nil {
			t.Errorf("%s: Build succeeded", tc.name)
		}
	}
}

func TestValidateMissedDeadline(t *testing.T) {
	// 1's node at t=1 must deliver to 2 by t=5 within horizon 20; omitting
	// the delivery is illegal.
	net := lineNet(t)
	r, err := NewBuilder(net, 20).
		External(ExternalEvent{Proc: 1, Time: 1, Label: "go"}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); !errors.Is(err, ErrMissedDeadline) {
		t.Errorf("got %v, want ErrMissedDeadline", err)
	}
	// With a short horizon the message may legally still be in transit.
	r2, err := NewBuilder(net, 3).
		External(ExternalEvent{Proc: 1, Time: 1, Label: "go"}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Validate(); err != nil {
		t.Errorf("in-transit at horizon flagged: %v", err)
	}
	pending := r2.PendingMessages()
	if len(pending) != 1 {
		t.Fatalf("pending = %d, want 1", len(pending))
	}
	if dl := pending[0].Deadline(r2.Net()); dl != 1+4 {
		t.Errorf("deadline = %d, want 5", dl)
	}
}

func TestResolve(t *testing.T) {
	r := chainRun(t)
	sigma := BasicNode{Proc: 1, Index: 1}
	theta := Via(sigma, model.Path{1, 2, 3})
	b, err := r.Resolve(theta)
	if err != nil {
		t.Fatal(err)
	}
	if (b != BasicNode{Proc: 3, Index: 1}) {
		t.Errorf("resolve = %s", b)
	}
	if got := r.MustTimeOf(theta); got != 6 {
		t.Errorf("time of theta = %d, want 6", got)
	}
	// Singleton resolves to itself.
	if b, _ := r.Resolve(At(sigma)); b != sigma {
		t.Errorf("singleton resolve = %s", b)
	}
	// Chains cannot leave initial nodes.
	_, err = r.Resolve(Via(BasicNode{Proc: 1, Index: 0}, model.Path{1, 2}))
	if !errors.Is(err, ErrUnresolvable) {
		t.Errorf("initial chain: %v", err)
	}
	// Invalid path.
	if _, err := r.Resolve(Via(sigma, model.Path{1, 3})); err == nil {
		t.Error("invalid chain path resolved")
	}
	// Wrong base process.
	if _, err := r.Resolve(Via(sigma, model.Path{2, 3})); err == nil {
		t.Error("mismatched base resolved")
	}
}

func TestPrecedes(t *testing.T) {
	r := chainRun(t)
	a := At(BasicNode{Proc: 1, Index: 1}) // t=1
	b := At(BasicNode{Proc: 3, Index: 1}) // t=6
	ok, err := r.Precedes(a, 5, b)
	if err != nil || !ok {
		t.Errorf("Precedes(a,5,b) = %v, %v", ok, err)
	}
	ok, err = r.Precedes(a, 6, b)
	if err != nil || ok {
		t.Errorf("Precedes(a,6,b) = %v, %v", ok, err)
	}
	// Negative bound: b occurs at most 5 after... a -(-10)-> is trivially true.
	ok, err = r.Precedes(b, -10, a)
	if err != nil || !ok {
		t.Errorf("Precedes(b,-10,a) = %v, %v", ok, err)
	}
}

func TestNodeAt(t *testing.T) {
	r := chainRun(t)
	if n := r.NodeAt(2, 2); n.Index != 0 {
		t.Errorf("NodeAt(2,2) = %s, want initial", n)
	}
	if n := r.NodeAt(2, 3); n.Index != 1 {
		t.Errorf("NodeAt(2,3) = %s", n)
	}
	if n := r.NodeAt(2, 19); n.Index != 1 {
		t.Errorf("NodeAt(2,19) = %s", n)
	}
}

func TestPast(t *testing.T) {
	r := chainRun(t)
	sigma := BasicNode{Proc: 3, Index: 1}
	ps, err := r.Past(sigma)
	if err != nil {
		t.Fatal(err)
	}
	// Past contains: 3#0..1, 2#0..1, 1#0..1 — everything here.
	if ps.Size() != 6 {
		t.Errorf("past size = %d, want 6", ps.Size())
	}
	for _, n := range []BasicNode{{1, 1}, {2, 1}, {3, 1}, {1, 0}} {
		if !ps.Contains(n) {
			t.Errorf("past missing %s", n)
		}
	}
	// The middle node's past excludes process 3.
	ps2, err := r.Past(BasicNode{Proc: 2, Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ps2.Contains(BasicNode{Proc: 3, Index: 0}) {
		t.Error("past(2#1) contains a process-3 node")
	}
	if b, ok := ps2.Boundary(1); !ok || b.Index != 1 {
		t.Errorf("boundary(1) = %v, %v", b, ok)
	}
	if _, ok := ps2.Boundary(3); ok {
		t.Error("boundary(3) exists")
	}
}

func TestHappensBefore(t *testing.T) {
	r := chainRun(t)
	hb, err := r.HappensBefore(BasicNode{Proc: 1, Index: 1}, BasicNode{Proc: 3, Index: 1})
	if err != nil || !hb {
		t.Errorf("1#1 -> 3#1: %v, %v", hb, err)
	}
	hb, err = r.HappensBefore(BasicNode{Proc: 3, Index: 1}, BasicNode{Proc: 1, Index: 1})
	if err != nil || hb {
		t.Errorf("3#1 -> 1#1: %v, %v", hb, err)
	}
	// Locality: same process, lower index.
	hb, err = r.HappensBefore(BasicNode{Proc: 2, Index: 0}, BasicNode{Proc: 2, Index: 1})
	if err != nil || !hb {
		t.Errorf("2#0 -> 2#1: %v, %v", hb, err)
	}
}

func TestChainPrefix(t *testing.T) {
	r := chainRun(t)
	sigma2 := BasicNode{Proc: 2, Index: 1}
	ps, err := r.Past(sigma2)
	if err != nil {
		t.Fatal(err)
	}
	theta := Via(BasicNode{Proc: 1, Index: 1}, model.Path{1, 2, 3})
	prefix, hops := r.ChainPrefix(ps, theta)
	if hops != 1 {
		t.Errorf("hops = %d, want 1 (the 2->3 hop leaves the past)", hops)
	}
	if len(prefix) != 2 || prefix[1] != sigma2 {
		t.Errorf("prefix = %v", prefix)
	}
}

func TestGeneralNodeHelpers(t *testing.T) {
	sigma := BasicNode{Proc: 1, Index: 2}
	g := At(sigma)
	if !g.IsBasic() || g.Proc() != 1 {
		t.Error("At helpers wrong")
	}
	h := g.Hop(2)
	if h.IsBasic() || h.Proc() != 2 {
		t.Error("Hop wrong")
	}
	ext, err := h.Extend(model.Path{2, 3})
	if err != nil || ext.Proc() != 3 || ext.Path.Hops() != 2 {
		t.Errorf("Extend = %v, %v", ext, err)
	}
	if !h.Equal(Via(sigma, model.Path{1, 2})) {
		t.Error("Equal wrong")
	}
	if s := ext.String(); s != "<p1#2,1>2>3>" {
		t.Errorf("String = %q", s)
	}
	if (BasicNode{Proc: 2, Index: 0}).String() != "p2#0" {
		t.Error("BasicNode String wrong")
	}
	if pred, ok := sigma.Predecessor(); !ok || pred.Index != 1 {
		t.Error("Predecessor wrong")
	}
	if _, ok := (BasicNode{Proc: 1, Index: 0}).Predecessor(); ok {
		t.Error("initial has a predecessor")
	}
}

func TestSameView(t *testing.T) {
	r1 := chainRun(t)
	// A retimed but structurally identical run.
	r2, err := NewBuilder(lineNet(t), 20).
		External(ExternalEvent{Proc: 1, Time: 2, Label: "go"}).
		Message(MessageEvent{FromProc: 1, ToProc: 2, SendTime: 2, RecvTime: 6}).
		Message(MessageEvent{FromProc: 2, ToProc: 3, SendTime: 6, RecvTime: 8}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	sigma := BasicNode{Proc: 3, Index: 1}
	if err := SameView(r1, r2, sigma); err != nil {
		t.Errorf("identical views differ: %v", err)
	}
	// A run with a different external label is distinguishable.
	r3, err := NewBuilder(lineNet(t), 20).
		External(ExternalEvent{Proc: 1, Time: 1, Label: "stop"}).
		Message(MessageEvent{FromProc: 1, ToProc: 2, SendTime: 1, RecvTime: 3}).
		Message(MessageEvent{FromProc: 2, ToProc: 3, SendTime: 3, RecvTime: 6}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := SameView(r1, r3, sigma); err == nil {
		t.Error("different external labels considered indistinguishable")
	}
}
