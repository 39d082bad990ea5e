package run

import "github.com/clockless/zigzag/internal/model"

// RefView is an independent, map-keyed model of View's recording
// semantics, kept only for differential tests: a delivery is recorded the
// first time its (sender node, destination process) pair is seen, and a
// merge advances membership first and then scans the payload's log suffix
// past the source's watermark. It has no frontier check and no dense index,
// so a View that agrees with it on the log and the fingerprint records
// exactly the same event sequence. It trusts its input; absorb only batches
// that View.Absorb accepted.
type RefView struct {
	net     *model.Network
	origin  BasicNode
	members []int
	sent    map[sentKey]bool
	exts    map[External]bool
	merged  map[uint64]logMarks
	log     []Delivery
	fp      uint64
}

// NewRefView returns the reference model of process p's initial state.
func NewRefView(net *model.Network, p model.ProcID) *RefView {
	r := &RefView{
		net:     net,
		origin:  BasicNode{Proc: p},
		members: make([]int, net.N()),
		sent:    make(map[sentKey]bool),
		exts:    make(map[External]bool),
		merged:  make(map[uint64]logMarks),
		fp:      fpMix(fpSeed(net), uint64(p)),
	}
	for i := range r.members {
		r.members[i] = -1
	}
	r.members[p-1] = 0
	return r
}

// Absorb applies one receive batch and returns the new node.
func (r *RefView) Absorb(receipts []Receipt, labels []string) BasicNode {
	p := r.origin.Proc
	r.origin.Index++
	r.members[p-1] = r.origin.Index
	for _, rc := range receipts {
		if s := rc.Payload; s != nil {
			for i, k := range s.members {
				if k > r.members[i] {
					r.members[i] = k
				}
			}
			mk := r.merged[s.source]
			for _, d := range s.log[min(mk.log, len(s.log)):] {
				r.record(d.From, d.To, d.Chan)
			}
			for _, e := range s.extLog[min(mk.ext, len(s.extLog)):] {
				r.recordExternal(e.To, e.Label)
			}
			mk.log, mk.ext = max(mk.log, len(s.log)), max(mk.ext, len(s.extLog))
			r.merged[s.source] = mk
		}
		r.record(rc.From, r.origin, r.net.ChanIDOf(rc.From.Proc, p))
	}
	for _, l := range labels {
		r.recordExternal(r.origin, l)
	}
	return r.origin
}

func (r *RefView) record(from, to BasicNode, ch model.ChanID) {
	key := sentKey{from: from, to: to.Proc}
	if r.sent[key] {
		return
	}
	r.sent[key] = true
	d := Delivery{From: from, To: to, Chan: ch}
	r.log = append(r.log, d)
	r.fp = fpDelivery(r.fp, d)
}

func (r *RefView) recordExternal(node BasicNode, label string) {
	e := External{To: node, Label: label}
	if r.exts[e] {
		return
	}
	r.exts[e] = true
	r.fp = fpExternal(r.fp, e)
}

// Log returns the recorded deliveries in recording order.
func (r *RefView) Log() []Delivery { return r.log }

// Fingerprint returns the rolling hash View.Fingerprint defines.
func (r *RefView) Fingerprint() uint64 { return fpFinish(r.fp) }
