package run_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/clockless/zigzag/internal/model"
	"github.com/clockless/zigzag/internal/run"
)

// fuzzState is one interpreter execution: the per-process views of a fixed
// 3-ring plus a decoy view over a different network for cross-network
// payloads.
type fuzzState struct {
	views [3]*run.View
	decoy *run.View
}

func newFuzzState() *fuzzState {
	ring := model.NewBuilder(3).Chan(1, 2, 1, 2).Chan(2, 3, 1, 2).Chan(3, 1, 1, 2).MustBuild()
	other := model.NewBuilder(4).Chan(1, 2, 1, 1).MustBuild()
	st := &fuzzState{decoy: run.NewLocalView(other, 1)}
	for p := model.ProcID(1); p <= 3; p++ {
		st.views[p-1] = run.NewLocalView(ring, p)
	}
	return st
}

// step interprets one (op, arg) byte pair against the state and returns a
// digest line of what happened — including any Absorb error text — so a
// replay can be compared step for step, together with the Absorb error.
func (st *fuzzState) step(op, arg byte) (string, error) {
	switch op % 4 {
	case 0:
		// Spontaneous state: absorb nothing but an external label.
		v := st.views[int(arg)%3]
		node, err := v.Absorb(nil, []string{fmt.Sprintf("e%d", arg%5)})
		return fmt.Sprintf("ext %v %v", node, err), err
	case 1:
		// Legitimate FFIP delivery along a ring arc: the sender's boundary
		// state with its honest frozen snapshot.
		from := int(arg)%3 + 1
		to := from%3 + 1
		sender := st.views[from-1]
		bnd, ok := sender.Boundary(model.ProcID(from))
		if !ok {
			return "no boundary", nil
		}
		node, err := st.views[to-1].Absorb(
			[]run.Receipt{{From: bnd, Payload: sender.Snapshot()}}, nil)
		return fmt.Sprintf("legit %v %v", node, err), err
	case 2:
		// Forged receipt: a From node the payload does not cover (or no
		// payload at all, or an out-of-range process). Absorb must reject it
		// with an error — never panic.
		v := st.views[int(arg)%3]
		forged := run.BasicNode{Proc: model.ProcID(int(arg)%5 - 1), Index: int(arg%7) + 50}
		var payload *run.Snapshot
		if arg%2 == 0 {
			payload = st.views[(int(arg)+1)%3].Snapshot()
		}
		node, err := v.Absorb([]run.Receipt{{From: forged, Payload: payload}}, nil)
		return fmt.Sprintf("forged %v %v", node, err), err
	default:
		// Cross-network payload: a snapshot whose member vector has the
		// wrong shape. Absorb must reject it.
		v := st.views[int(arg)%3]
		node, err := v.Absorb([]run.Receipt{{From: run.BasicNode{Proc: 1, Index: 0},
			Payload: st.decoy.Snapshot()}}, nil)
		return fmt.Sprintf("xnet %v %v", node, err), err
	}
}

// digest summarizes the observable state of every view: origin, size and a
// hash of its deliveries, leaving messages and every member's externals.
func (st *fuzzState) digest() string {
	out := ""
	for i, v := range st.views {
		h := fnv.New64a()
		fmt.Fprint(h, v.Deliveries(), v.Leaving())
		for _, p := range v.Net().Procs() {
			b, ok := v.Boundary(p)
			for k := 0; ok && k <= b.Index; k++ {
				fmt.Fprint(h, p, k, v.ExternalsAt(run.BasicNode{Proc: p, Index: k}))
			}
		}
		out += fmt.Sprintf("view%d origin=%v size=%d content=%#x;", i, v.Origin(), v.Size(), h.Sum64())
	}
	return out
}

// FuzzViewAbsorb drives View.Absorb with an arbitrary interleaving of
// legitimate deliveries, forged receipts and cross-network payloads. Three
// invariants: no input may panic the view (malformed receipts are typed
// errors), a step that returns an error leaves every view's digest
// unchanged, and the interpreter is deterministic — replaying the same ops
// on fresh views reproduces every step digest and the final state exactly.
func FuzzViewAbsorb(f *testing.F) {
	f.Add([]byte{0, 1, 4, 2, 8, 3, 1, 0, 2, 2, 3, 9})
	f.Add([]byte{1, 0, 1, 1, 1, 2, 0, 0, 0, 1, 0, 2})
	f.Add([]byte{2, 0, 2, 3, 2, 6, 3, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return // keep individual executions cheap
		}
		a, b := newFuzzState(), newFuzzState()
		for i := 0; i+1 < len(data); i += 2 {
			before := a.digest()
			ra, err := a.step(data[i], data[i+1])
			if after := a.digest(); err != nil && after != before {
				t.Fatalf("step %d: rejected (%v) but changed the views:\n %s\n %s", i/2, err, before, after)
			}
			rb, _ := b.step(data[i], data[i+1])
			if ra != rb {
				t.Fatalf("step %d diverged:\n %s\n %s", i/2, ra, rb)
			}
		}
		if da, db := a.digest(), b.digest(); da != db {
			t.Fatalf("final state diverged:\n %s\n %s", da, db)
		}
	})
}
