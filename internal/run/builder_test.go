package run_test

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
	"github.com/clockless/zigzag/internal/scenario"
	"github.com/clockless/zigzag/internal/sim"
	"github.com/clockless/zigzag/internal/workload"
)

// recordedEvents returns r's recording as Builder events: one MessageEvent
// per delivery and one ExternalEvent per external input, both in r's order.
func recordedEvents(r *run.Run) ([]run.MessageEvent, []run.ExternalEvent) {
	ms := make([]run.MessageEvent, 0, len(r.Deliveries()))
	for _, d := range r.Deliveries() {
		ms = append(ms, run.MessageEvent{FromProc: d.From.Proc, ToProc: d.To.Proc, SendTime: d.SendTime, RecvTime: d.RecvTime})
	}
	es := make([]run.ExternalEvent, 0, len(r.Externals()))
	for _, e := range r.Externals() {
		es = append(es, run.ExternalEvent{Proc: e.To.Proc, Time: e.Time, Label: e.Label})
	}
	return ms, es
}

// buildEvents builds a run over net up to horizon from the events, in the
// order given.
func buildEvents(net *model.Network, horizon model.Time, ms []run.MessageEvent, es []run.ExternalEvent) (*run.Run, error) {
	bl := run.NewBuilder(net, horizon)
	for _, ev := range ms {
		bl.Message(ev)
	}
	for _, ev := range es {
		bl.External(ev)
	}
	return bl.Build()
}

// nodeAtTime resolves the node p creates at time t.
func nodeAtTime(t *testing.T, r *run.Run, p model.ProcID, at model.Time) run.BasicNode {
	t.Helper()
	b := r.NodeAt(p, at)
	if r.MustTime(b) != at {
		t.Fatalf("p%d has no node at time %d", p, at)
	}
	return b
}

// checkDocumentedOrder compares r's delivery and pending lists with a
// reference built from the events and ordered by sort.Slice on the
// documented keys: deliveries by (RecvTime, To.Proc, From.Proc, SendTime),
// pending messages by (SendTime, From.Proc, To).
func checkDocumentedOrder(t *testing.T, label string, r *run.Run, ms []run.MessageEvent) {
	t.Helper()
	net := r.Net()
	want := make([]run.Delivery, 0, len(ms))
	sent := make(map[run.BasicNode]map[model.ProcID]bool)
	for _, ev := range ms {
		from := nodeAtTime(t, r, ev.FromProc, ev.SendTime)
		want = append(want, run.Delivery{
			From: from, To: nodeAtTime(t, r, ev.ToProc, ev.RecvTime),
			SendTime: ev.SendTime, RecvTime: ev.RecvTime, Chan: net.ChanIDOf(ev.FromProc, ev.ToProc),
		})
		if sent[from] == nil {
			sent[from] = make(map[model.ProcID]bool)
		}
		sent[from][ev.ToProc] = true
	}
	sort.Slice(want, func(i, j int) bool {
		a, b := want[i], want[j]
		if a.RecvTime != b.RecvTime {
			return a.RecvTime < b.RecvTime
		}
		if a.To.Proc != b.To.Proc {
			return a.To.Proc < b.To.Proc
		}
		if a.From.Proc != b.From.Proc {
			return a.From.Proc < b.From.Proc
		}
		return a.SendTime < b.SendTime
	})
	if !slices.Equal(r.Deliveries(), want) {
		t.Fatalf("%s: deliveries are not in the documented arrival order", label)
	}
	var pending []run.Pending
	for _, p := range net.Procs() {
		for k := 1; k <= r.LastIndex(p); k++ {
			from := run.BasicNode{Proc: p, Index: k}
			for _, a := range net.OutArcs(p) {
				if !sent[from][a.To] {
					pending = append(pending, run.Pending{From: from, To: a.To, SendTime: r.MustTime(from), Chan: a.ID})
				}
			}
		}
	}
	sort.Slice(pending, func(i, j int) bool {
		a, b := pending[i], pending[j]
		if a.SendTime != b.SendTime {
			return a.SendTime < b.SendTime
		}
		if a.From.Proc != b.From.Proc {
			return a.From.Proc < b.From.Proc
		}
		return a.To < b.To
	})
	if !slices.Equal(r.PendingMessages(), pending) {
		t.Fatalf("%s: pending messages are not in the documented order", label)
	}
}

// sameRecording fails unless got and want agree on every table Build
// fills: deliveries, pending messages, per-node externals and inboxes, and
// DeliveryFrom for every (node, out-arc).
func sameRecording(t *testing.T, label string, got, want *run.Run) {
	t.Helper()
	if !slices.Equal(got.Deliveries(), want.Deliveries()) {
		t.Fatalf("%s: deliveries differ", label)
	}
	if !slices.Equal(got.PendingMessages(), want.PendingMessages()) {
		t.Fatalf("%s: pending messages differ", label)
	}
	net := want.Net()
	for _, p := range net.Procs() {
		if got.LastIndex(p) != want.LastIndex(p) {
			t.Fatalf("%s: p%d has %d nodes, want %d", label, p, got.LastIndex(p)+1, want.LastIndex(p)+1)
		}
		for k := 0; k <= want.LastIndex(p); k++ {
			b := run.BasicNode{Proc: p, Index: k}
			if !slices.Equal(got.ExternalsAt(b), want.ExternalsAt(b)) {
				t.Fatalf("%s: ExternalsAt(%s) differs", label, b)
			}
			if !slices.Equal(got.Inbox(b), want.Inbox(b)) {
				t.Fatalf("%s: Inbox(%s) differs", label, b)
			}
			for _, a := range net.OutArcs(p) {
				gd, gok := got.DeliveryFrom(b, a.To)
				wd, wok := want.DeliveryFrom(b, a.To)
				if gd != wd || gok != wok {
					t.Fatalf("%s: DeliveryFrom(%s, %d) = %v %v, want %v %v", label, b, a.To, gd, gok, wd, wok)
				}
			}
		}
	}
}

// interleave shuffles es across nodes but keeps the recorded order of the
// externals of each node, the order ExternalsAt reports.
func interleave(rng *rand.Rand, es []run.ExternalEvent) []run.ExternalEvent {
	type key struct {
		p model.ProcID
		t model.Time
	}
	perNode := make(map[key][]run.ExternalEvent)
	var keys []key
	for _, e := range es {
		k := key{e.Proc, e.Time}
		if perNode[k] == nil {
			keys = append(keys, k)
		}
		perNode[k] = append(perNode[k], e)
	}
	out := make([]run.ExternalEvent, 0, len(es))
	for len(out) < len(es) {
		i := rng.Intn(len(keys))
		k := keys[i]
		out = append(out, perNode[k][0])
		if perNode[k] = perNode[k][1:]; len(perNode[k]) == 0 {
			keys = append(keys[:i], keys[i+1:]...)
		}
	}
	return out
}

// resolveExternals resolves external events against r, in event order.
func resolveExternals(t *testing.T, r *run.Run, es []run.ExternalEvent) []run.External {
	t.Helper()
	out := make([]run.External, len(es))
	for i, e := range es {
		out[i] = run.External{To: nodeAtTime(t, r, e.Proc, e.Time), Time: e.Time, Label: e.Label}
	}
	return out
}

// TestBuildIsOrderIndependent: Build's result does not depend on the order
// events were added in. Recordings of the random family and of coord-m16
// are rebuilt from shuffled message events and from externals interleaved
// across nodes; every table must match the original and the documented
// sort keys. The fingerprint hashes externals in recorded order, so it must
// match whenever the external order is the original one.
func TestBuildIsOrderIndependent(t *testing.T) {
	scs := append(scenario.RandomFamily(), scenario.RegistrySized(0, 16)["coord-m16"])
	rng := rand.New(rand.NewSource(14))
	for _, sc := range scs {
		r := sc.MustSimulate(sim.NewRandom(3))
		ms, es := recordedEvents(r)
		checkDocumentedOrder(t, sc.Name, r, ms)
		for trial := 0; trial < 3; trial++ {
			shuffled := slices.Clone(ms)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			got, err := buildEvents(r.Net(), r.Horizon(), shuffled, es)
			if err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			sameRecording(t, sc.Name, got, r)
			checkDocumentedOrder(t, sc.Name, got, shuffled)
			if got.Fingerprint() != r.Fingerprint() {
				t.Fatalf("%s: fingerprint %#x after a message shuffle, want %#x", sc.Name, got.Fingerprint(), r.Fingerprint())
			}

			mixed := interleave(rng, es)
			got, err = buildEvents(r.Net(), r.Horizon(), shuffled, mixed)
			if err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			sameRecording(t, sc.Name+" (externals interleaved)", got, r)
			if !slices.Equal(got.Externals(), resolveExternals(t, got, mixed)) {
				t.Fatalf("%s: Externals does not keep the recorded order", sc.Name)
			}
			if slices.Equal(mixed, es) && got.Fingerprint() != r.Fingerprint() {
				t.Fatalf("%s: fingerprint differs with the original external order", sc.Name)
			}
		}
	}
}

// TestDeliveryFromEdgeCases: lookups outside the sent table report false
// instead of panicking.
func TestDeliveryFromEdgeCases(t *testing.T) {
	net := model.NewBuilder(3).Chan(1, 2, 2, 4).Chan(2, 3, 2, 4).MustBuild()
	r, err := run.NewBuilder(net, 20).
		External(run.ExternalEvent{Proc: 1, Time: 1, Label: "go"}).
		Message(run.MessageEvent{FromProc: 1, ToProc: 2, SendTime: 1, RecvTime: 3}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := r.DeliveryFrom(run.BasicNode{Proc: 1, Index: 1}, 2); !ok || d.To != (run.BasicNode{Proc: 2, Index: 1}) {
		t.Fatalf("DeliveryFrom(p1#1, 2) = %v %v", d, ok)
	}
	cases := []struct {
		name string
		from run.BasicNode
		to   model.ProcID
	}{
		{"initial node", run.BasicNode{Proc: 1, Index: 0}, 2},
		{"pending message", run.BasicNode{Proc: 2, Index: 1}, 3},
		{"past the last index", run.BasicNode{Proc: 1, Index: 2}, 2},
		{"negative index", run.BasicNode{Proc: 1, Index: -1}, 2},
		{"no channel", run.BasicNode{Proc: 1, Index: 1}, 3},
		{"sender without out-arcs", run.BasicNode{Proc: 3, Index: 0}, 1},
		{"invalid sender", run.BasicNode{Proc: 0, Index: 1}, 2},
		{"sender past n", run.BasicNode{Proc: 4, Index: 1}, 2},
		{"invalid destination", run.BasicNode{Proc: 1, Index: 1}, 9},
	}
	for _, tc := range cases {
		if d, ok := r.DeliveryFrom(tc.from, tc.to); ok {
			t.Errorf("%s: DeliveryFrom(%s, %d) = %v, want false", tc.name, tc.from, tc.to, d)
		}
	}
}

// TestBuildAllocationsFlatInDeliveries: Build allocates a fixed number of
// tables, so its allocation count on the n=32 scaling schedule is the same
// for a quarter of the schedule as for all of it.
func TestBuildAllocationsFlatInDeliveries(t *testing.T) {
	cfg := workload.DefaultConfig(32)
	cfg.Procs = 32
	cfg.ExtraChannels = 64
	in := workload.MustGenerate(cfg)
	r := sim.MustSimulate(sim.Config{
		Net: in.Net, Horizon: in.Horizon, Policy: sim.NewRandom(1), Externals: in.Externals,
	})
	ms, es := recordedEvents(r)
	prefix := func(h model.Time) *run.Builder {
		bl := run.NewBuilder(in.Net, h)
		for _, ev := range ms {
			if ev.RecvTime <= h {
				bl.Message(ev)
			}
		}
		for _, ev := range es {
			if ev.Time <= h {
				bl.External(ev)
			}
		}
		return bl
	}
	var allocs []float64
	var sizes []int
	for _, h := range []model.Time{r.Horizon() / 4, r.Horizon()} {
		bl := prefix(h)
		got, err := bl.Build()
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(got.Deliveries()))
		allocs = append(allocs, testing.AllocsPerRun(5, func() {
			if _, err := bl.Build(); err != nil {
				t.Fatal(err)
			}
		}))
	}
	t.Logf("Build allocations: %v for %v deliveries", allocs, sizes)
	if sizes[0] == 0 || 2*sizes[0] > sizes[1] {
		t.Fatalf("prefix sizes %v do not separate the schedules", sizes)
	}
	if allocs[0] != allocs[1] {
		t.Errorf("Build allocations grow with the deliveries: %v for %v", allocs, sizes)
	}
}

// buildErrors are the values every Build error must wrap.
var buildErrors = []error{
	model.ErrBadProc, run.ErrOutsideHorizon, run.ErrChannelMissing, run.ErrInitialSend,
	run.ErrNoNode, run.ErrBadDelivery, run.ErrDuplicateSend,
}

// FuzzBuild turns the fuzz bytes into message and external events on a
// small network (out-of-range processes and times included) and builds
// them in the given order and permuted. Build must return a run or an error
// wrapping one of buildErrors, never panic; both orders must agree on
// success, and when they succeed on every table and the fingerprint.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 1, 1, 2, 1, 3, 0, 2, 2, 5, 1, 1, 3, 6})
	f.Add([]byte{1, 1, 2, 0, 2, 3, 3, 1, 5, 0, 3, 1, 3, 1, 3, 1, 8})
	f.Add([]byte{4, 1, 3, 0, 1, 3, 2, 1, 2, 5, 4, 2, 0, 9, 9, 9, 9})
	net := model.NewBuilder(3).Chan(1, 2, 1, 3).Chan(2, 1, 1, 3).Chan(2, 3, 1, 2).Chan(3, 1, 2, 4).MustBuild()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 400 {
			return
		}
		horizon := model.Time(data[0] % 16)
		var ms []run.MessageEvent
		var es []run.ExternalEvent
		for i := 1; i+3 < len(data); i += 4 {
			b := data[i : i+4]
			if b[0]%4 == 0 {
				es = append(es, run.ExternalEvent{Proc: model.ProcID(b[1] % 5), Time: model.Time(int(b[2]%20) - 2), Label: string('a' + rune(b[3]%3))})
				continue
			}
			send := model.Time(int(b[2]%20) - 2)
			ms = append(ms, run.MessageEvent{
				FromProc: model.ProcID(b[0] % 5), ToProc: model.ProcID(b[1] % 5),
				SendTime: send, RecvTime: send + model.Time(b[3]%6),
			})
		}
		r, err := buildEvents(net, horizon, ms, es)
		if err != nil {
			typed := false
			for _, want := range buildErrors {
				typed = typed || errors.Is(err, want)
			}
			if !typed {
				t.Fatalf("untyped Build error: %v", err)
			}
		}
		rot := 0
		if len(ms) > 0 {
			rot = int(data[0]) % len(ms)
		}
		permuted := append(slices.Clone(ms[rot:]), ms[:rot]...)
		slices.Reverse(permuted)
		r2, err2 := buildEvents(net, horizon, permuted, es)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("message order changed the outcome: %v vs %v", err, err2)
		}
		if err != nil {
			return
		}
		sameRecording(t, "permuted", r2, r)
		if r.Fingerprint() != r2.Fingerprint() {
			t.Fatalf("message order changed the fingerprint: %#x vs %#x", r.Fingerprint(), r2.Fingerprint())
		}
		_ = r.Validate()
	})
}
