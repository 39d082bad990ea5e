package run

import (
	"fmt"

	"github.com/clockless/zigzag/internal/model"
)

// MessageEvent describes one delivery for the Builder: the FFIP message sent
// by FromProc at SendTime (i.e. at FromProc's node whose time is exactly
// SendTime) on the channel to ToProc, delivered at RecvTime.
type MessageEvent struct {
	FromProc model.ProcID
	ToProc   model.ProcID
	SendTime model.Time
	RecvTime model.Time
}

// ExternalEvent describes a spontaneous external input for the Builder.
type ExternalEvent struct {
	Proc  model.ProcID
	Time  model.Time
	Label string
}

// Builder assembles a Run from raw timed events. Node indices are derived:
// every distinct time at which a process receives something (messages and/or
// externals) becomes one batch, creating one new basic node. The builder is
// used by the simulator and by the run-synthesis constructions of
// internal/timing (Lemma 8 run-by-timing, Definition 24 fast run).
type Builder struct {
	net      *model.Network
	horizon  model.Time
	messages []MessageEvent
	externs  []ExternalEvent
	tolerant bool
}

// NewBuilder returns a Builder for runs over net recorded up to horizon.
func NewBuilder(net *model.Network, horizon model.Time) *Builder {
	return &Builder{net: net, horizon: horizon}
}

// Message appends a delivery event.
func (bl *Builder) Message(ev MessageEvent) *Builder {
	bl.messages = append(bl.messages, ev)
	return bl
}

// External appends an external-input event.
func (bl *Builder) External(ev ExternalEvent) *Builder {
	bl.externs = append(bl.externs, ev)
	return bl
}

// Tolerate relaxes Build's per-delivery latency-window check to latency >= 1,
// admitting recordings of fault-injected executions whose deliveries may
// violate their channel's [L, U] bounds (internal/faults deadline plans).
// All structural checks — channels exist, nodes exist, no duplicate sends,
// horizon — still apply; dropped messages simply surface as Pending. Such a
// run will generally fail Validate, which is the point: the faults injector,
// not the builder, owns violation accounting for faulted runs.
func (bl *Builder) Tolerate() *Builder {
	bl.tolerant = true
	return bl
}

// Build derives node indices, wires deliveries to nodes and returns the Run.
// It fails if any event is inconsistent (bad channel, bad times, sender has
// no node at the send time, event beyond horizon). Build does NOT check the
// forced-delivery (upper bound deadline) discipline — call Validate on the
// result for full legality checking. Every error wraps one of this
// package's Err* values or model.ErrBadProc.
//
// Build uses no maps and no comparison sorts. Every table it fills is dense
// and indexed by process, time, flat node id or sent slot, and the
// documented orders of Deliveries and PendingMessages fall out of the walks
// that fill them, whatever the order the events were added in.
func (bl *Builder) Build() (*Run, error) {
	n := bl.net.N()
	h := int(bl.horizon)
	if h < 0 {
		return nil, fmt.Errorf("%w: negative horizon %d", ErrOutsideHorizon, h)
	}

	// 1. Mark the receive times of every process: nodeAt[(p-1)*(h+1)+t] is
	// first a receipt flag, then (step 2) the index of process p's node
	// created at time t (0 = none).
	nodeAt := make([]int32, n*(h+1))
	counts := make([]int32, n)
	note := func(p model.ProcID, t model.Time) error {
		if !bl.net.ValidProc(p) {
			return fmt.Errorf("%w: process %d", model.ErrBadProc, p)
		}
		if t < 1 {
			return fmt.Errorf("%w: time %d: receipts start at time 1", ErrOutsideHorizon, t)
		}
		if t > bl.horizon {
			return fmt.Errorf("%w: time %d > horizon %d", ErrOutsideHorizon, t, bl.horizon)
		}
		if at := &nodeAt[int(p-1)*(h+1)+int(t)]; *at == 0 {
			*at = 1
			counts[p-1]++
		}
		return nil
	}
	for _, ev := range bl.messages {
		if err := note(ev.ToProc, ev.RecvTime); err != nil {
			return nil, fmt.Errorf("delivery %d->%d: %w", ev.FromProc, ev.ToProc, err)
		}
	}
	for _, ev := range bl.externs {
		if err := note(ev.Proc, ev.Time); err != nil {
			return nil, fmt.Errorf("external %q: %w", ev.Label, err)
		}
	}
	node := func(p model.ProcID, t model.Time) int32 { return nodeAt[int(p-1)*(h+1)+int(t)] }

	// 2. Assign node indices per process: index 0 at time 0, then one node
	// per distinct receive time in ascending order. The sent table gets
	// deg(p) slots per node of p, initial nodes included.
	total := int32(n)
	for _, c := range counts {
		total += c
	}
	r := &Run{
		net:     bl.net,
		horizon: bl.horizon,
		times:   make([][]model.Time, n),
		nodeOff: make([]int32, n+1),
		sentOff: make([]int32, n+1),
		inbox:   make([]span, total),
	}
	timeBacking := make([]model.Time, 0, total)
	sends := 0 // sent slots of non-initial nodes: deliveries + pending
	for i := 0; i < n; i++ {
		deg := int32(len(bl.net.OutArcs(model.ProcID(i + 1))))
		r.nodeOff[i+1] = r.nodeOff[i] + counts[i] + 1
		r.sentOff[i+1] = r.sentOff[i] + (counts[i]+1)*deg
		sends += int(counts[i] * deg)
		start := len(timeBacking)
		timeBacking = append(timeBacking, 0)
		row := nodeAt[i*(h+1) : (i+1)*(h+1)]
		k := int32(0)
		for t := 1; t <= h; t++ {
			if row[t] != 0 {
				k++
				row[t] = k
				timeBacking = append(timeBacking, model.Time(t))
			}
		}
		r.times[i] = timeBacking[start:len(timeBacking):len(timeBacking)]
	}
	r.sent = make([]int32, r.sentOff[n])

	// 3. Check every delivery. Its sent slot holds 1 + its event index for
	// now, which is also the duplicate-send check, and its receiver's inbox
	// span counts it in hi.
	for i, ev := range bl.messages {
		cid := bl.net.ChanIDOf(ev.FromProc, ev.ToProc)
		if cid == model.NoChan {
			return nil, fmt.Errorf("%w: %d->%d", ErrChannelMissing, ev.FromProc, ev.ToProc)
		}
		if ev.SendTime == 0 {
			return nil, fmt.Errorf("%w: send at time 0 by process %d", ErrInitialSend, ev.FromProc)
		}
		var fromIdx int32
		if ev.SendTime >= 1 && int(ev.SendTime) <= h {
			fromIdx = node(ev.FromProc, ev.SendTime)
		}
		if fromIdx == 0 {
			return nil, fmt.Errorf("%w: process %d has no node at send time %d", ErrNoNode, ev.FromProc, ev.SendTime)
		}
		from := BasicNode{Proc: ev.FromProc, Index: int(fromIdx)}
		to := BasicNode{Proc: ev.ToProc, Index: int(node(ev.ToProc, ev.RecvTime))}
		lat := ev.RecvTime - ev.SendTime
		if bl.tolerant {
			if lat < 1 {
				d := Delivery{From: from, To: to, SendTime: ev.SendTime, RecvTime: ev.RecvTime, Chan: cid}
				return nil, fmt.Errorf("%w: %s latency %d < 1", ErrBadDelivery, d, lat)
			}
		} else if bd := bl.net.BoundsOf(cid); lat < bd.Lower || lat > bd.Upper {
			d := Delivery{From: from, To: to, SendTime: ev.SendTime, RecvTime: ev.RecvTime, Chan: cid}
			return nil, fmt.Errorf("%w: %s latency %d outside %s", ErrBadDelivery, d, lat, bd)
		}
		slot := &r.sent[r.sentSlot(from, cid)]
		if *slot != 0 {
			return nil, fmt.Errorf("%w: %s to %d", ErrDuplicateSend, from, ev.ToProc)
		}
		*slot = int32(i) + 1
		r.inbox[r.flat(to)].hi++
	}

	// 4. Walk the nodes time-major, then by process. Receiving nodes come
	// out in arrival order (RecvTime, To.Proc), so each inbox span starts
	// where the previous one ends. Sending nodes come out in
	// (SendTime, From.Proc) order and their out-arcs in To order, which is
	// the order of the pending list.
	r.pending = make([]Pending, 0, sends-len(bl.messages))
	var cursor int32
	for t := 1; t <= h; t++ {
		for i := 0; i < n; i++ {
			k := nodeAt[i*(h+1)+t]
			if k == 0 {
				continue
			}
			b := BasicNode{Proc: model.ProcID(i + 1), Index: int(k)}
			sp := &r.inbox[r.nodeOff[i]+k]
			c := sp.hi
			sp.lo, sp.hi = cursor, cursor
			cursor += c
			arcs := bl.net.OutArcs(b.Proc)
			base := r.sentOff[i] + k*int32(len(arcs))
			for s, a := range arcs {
				if r.sent[base+int32(s)] == 0 {
					r.pending = append(r.pending, Pending{From: b, To: a.To, SendTime: model.Time(t), Chan: a.ID})
				}
			}
		}
	}

	// 5. Place the deliveries, walking the sent table in sender order
	// (From.Proc, SendTime). Appending each to its receiver's span keeps
	// that order inside the batch, which completes the arrival order
	// (RecvTime, To.Proc, From.Proc, SendTime): two messages on one channel
	// can share a receive batch, and SendTime makes the key total. Every
	// delivery is written once, straight into its final slot, and its sent
	// slot is rewritten to 1 + its delivery index.
	r.deliveries = make([]Delivery, len(bl.messages))
	for i := 0; i < n; i++ {
		p := model.ProcID(i + 1)
		arcs := bl.net.OutArcs(p)
		deg := len(arcs)
		row := r.sent[r.sentOff[i]:r.sentOff[i+1]]
		for j, e := range row {
			if e == 0 {
				continue
			}
			ev := &bl.messages[e-1]
			to := BasicNode{Proc: ev.ToProc, Index: int(node(ev.ToProc, ev.RecvTime))}
			sp := &r.inbox[r.flat(to)]
			r.deliveries[sp.hi] = Delivery{
				From:     BasicNode{Proc: p, Index: j / deg},
				To:       to,
				SendTime: ev.SendTime,
				RecvTime: ev.RecvTime,
				Chan:     arcs[j%deg].ID,
			}
			sp.hi++
			row[j] = sp.hi
		}
	}

	// 6. Externals keep their recorded order. A stable counting sort on the
	// flat node id groups their indices per node, in recorded order.
	r.externals = make([]External, len(bl.externs))
	if len(bl.externs) > 0 {
		r.extOff = make([]int32, total+1)
		r.extIdx = make([]int32, len(bl.externs))
		for i, ev := range bl.externs {
			to := BasicNode{Proc: ev.Proc, Index: int(node(ev.Proc, ev.Time))}
			r.externals[i] = External{To: to, Time: ev.Time, Label: ev.Label}
			r.extOff[r.flat(to)+1]++
		}
		for f := int32(1); f <= total; f++ {
			r.extOff[f] += r.extOff[f-1]
		}
		for i, e := range r.externals {
			at := &r.extOff[r.flat(e.To)]
			r.extIdx[*at] = int32(i)
			*at++
		}
		// Placement advanced each node's offset to the next node's start;
		// shift them back.
		copy(r.extOff[1:], r.extOff[:total])
		r.extOff[0] = 0
	}
	return r, nil
}

// MustBuild is Build that panics on error.
func (bl *Builder) MustBuild() *Run {
	r, err := bl.Build()
	if err != nil {
		panic(err)
	}
	return r
}
