// Package fivegsim simulates a 5G core control plane producing the
// "synthetic yet representative data" the paper's benchmark executes
// reference queries against (§4.1). A discrete-event simulator drives the
// primary subscriber lifecycle — UE arrivals, registration,
// authentication, PDU session establishment/release, handovers, paging,
// deregistration — bumping the corresponding procedure counters and
// gauges; the long tail of secondary counters (protocol messages, other
// procedures, traffic and resource metrics) is driven by seeded rate
// models. Counter samples are scraped into a tsdb.DB at a fixed interval,
// exactly as a Prometheus server would scrape a vNF.
package fivegsim

import "math/rand"

// eventKind enumerates the subscriber lifecycle events of the DES.
type eventKind int

const (
	evUEArrival eventKind = iota
	evRegister
	evAuthenticate
	evEstablishSession
	evReleaseSession
	evHandover
	evPage
	evPeriodicUpdate
	evDeregister
)

// desProc is one procedure the DES drives; desProcKeys holds each one's
// "nf/service/slug" key.
type desProc int

// The DES-driven procedures.
const (
	procInitialRegistration desProc = iota
	procN1Auth
	procSMC
	procMobilityRegistrationUpdate
	procPeriodicRegistrationUpdate
	procServiceRequest
	procUEDeregistration
	procUECtxSetup
	procUECtxRelease
	procPaging
	procHOPreparation
	procHOResourceAllocation
	procHONotification
	procPathSwitch
	procPDUResourceSetup
	procPDUResourceRelease
	procSMCtxCreate
	procSMCtxRelease
	procPDUSessionEstablishment
	procPDUSessionRelease
	procIPAlloc
	procN4SessionEstablishment
	procN4SessionDeletion
	procUPFSessionEstablishment
	procUPFSessionDeletion
	procTunnelCreate
	procTunnelDelete
	numDESProcs
)

var desProcKeys = [numDESProcs]string{
	procInitialRegistration:        "amf/cc/initial_registration",
	procN1Auth:                     "amf/cc/n1_auth",
	procSMC:                        "amf/cc/smc",
	procMobilityRegistrationUpdate: "amf/cc/mobility_registration_update",
	procPeriodicRegistrationUpdate: "amf/cc/periodic_registration_update",
	procServiceRequest:             "amf/cc/service_request",
	procUEDeregistration:           "amf/cc/ue_deregistration",
	procUECtxSetup:                 "amf/mm/ue_ctx_setup",
	procUECtxRelease:               "amf/mm/ue_ctx_release",
	procPaging:                     "amf/mm/paging",
	procHOPreparation:              "amf/mm/ho_preparation",
	procHOResourceAllocation:       "amf/mm/ho_resource_allocation",
	procHONotification:             "amf/mm/ho_notification",
	procPathSwitch:                 "amf/mm/path_switch",
	procPDUResourceSetup:           "amf/mm/pdu_resource_setup",
	procPDUResourceRelease:         "amf/mm/pdu_resource_release",
	procSMCtxCreate:                "smf/sm/sm_ctx_create",
	procSMCtxRelease:               "smf/sm/sm_ctx_release",
	procPDUSessionEstablishment:    "smf/sm/pdu_session_establishment",
	procPDUSessionRelease:          "smf/sm/pdu_session_release",
	procIPAlloc:                    "smf/sm/ip_alloc",
	procN4SessionEstablishment:     "smf/n4/session_establishment",
	procN4SessionDeletion:          "smf/n4/session_deletion",
	procUPFSessionEstablishment:    "upf/sess/session_establishment",
	procUPFSessionDeletion:         "upf/sess/session_deletion",
	procTunnelCreate:               "upf/gtp/tunnel_create",
	procTunnelDelete:               "upf/gtp/tunnel_delete",
}

// event is one scheduled lifecycle event.
type event struct {
	at   float64 // simulated seconds since start
	kind eventKind
	ue   *ue
	seq  int // tie-breaker for determinism
}

// before orders events by time, then sequence. seq is unique, so the order
// is total and every correct heap pops the same sequence.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap of events held by value: scheduling
// allocates nothing once the slice has grown.
type eventQueue []event

// push adds e, moving the hole at the new leaf up to e's place.
func (q *eventQueue) push(e event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 && e.before(&h[(i-1)/2]) {
		h[i] = h[(i-1)/2]
		i = (i - 1) / 2
	}
	h[i] = e
	*q = h
}

// pop removes the least event, sinking the last leaf from the root.
func (q *eventQueue) pop() event {
	h := *q
	top, n := h[0], len(h)-1
	last := h[n]
	h[n] = event{} // release the *ue
	h = h[:n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	*q = h
	return top
}

// ueState tracks where a subscriber is in its lifecycle.
type ueState int

const (
	ueIdle ueState = iota
	ueRegistered
	ueSession
	ueGone
)

// ue is one simulated subscriber.
type ue struct {
	id       int
	state    ueState
	sessions int
}

// des is the discrete-event core. It steps a fork of the world on its own
// RNG stream and writes only the cells it owns, so it can run on its own
// goroutine ahead of the rate models.
type des struct {
	rng   *rand.Rand
	queue eventQueue
	seq   int
	now   float64
	world *world
	procs [numDESProcs]*proc
	// cells are the world cells the DES owns: its procedures' counters and
	// the UE and session gauges. Their histograms belong to the rate
	// stage, which records drawn, the durations the DES drew, in draw
	// order.
	cells  []int
	drawn  []duration
	nextUE int
}

func newDES(seed int64, w *world) *des {
	d := &des{rng: rand.New(rand.NewSource(seed)), world: w.fork()}
	for i, key := range desProcKeys {
		p, ok := w.procs[key]
		if !ok {
			panic("fivegsim: unknown procedure " + key)
		}
		d.procs[i] = p
		d.cells = append(d.cells, p.request, p.attempt, p.success, p.failure, p.timeout, p.reject, p.abort, p.retransmission)
		d.cells = append(d.cells, p.failureCauses...)
		d.cells = append(d.cells, p.rejectCauses...)
	}
	for _, g := range w.ueGauges {
		d.cells = append(d.cells, g.cell)
	}
	for _, g := range w.sessionGauges {
		d.cells = append(d.cells, g.cell)
	}
	return d
}

// gather copies the DES's cells into out, in d.cells order.
func (d *des) gather(out []float64) {
	for k, c := range d.cells {
		out[k] = d.world.vals[c]
	}
}

// schedule enqueues an event after delay seconds.
func (d *des) schedule(delay float64, kind eventKind, u *ue) {
	d.seq++
	d.queue.push(event{at: d.now + delay, kind: kind, ue: u, seq: d.seq})
}

// expo draws an exponential inter-arrival time with the given mean.
func (d *des) expo(mean float64) float64 {
	return d.rng.ExpFloat64() * mean
}

// runUntil processes events up to (and including) time t.
func (d *des) runUntil(t float64) {
	for len(d.queue) > 0 && d.queue[0].at <= t {
		e := d.queue.pop()
		d.now = e.at
		d.dispatch(&e)
	}
	d.now = t
}

// outcome draws a procedure outcome and bumps the procedure's counters.
// Returns true when the procedure succeeded.
func (d *des) outcome(dp desProc, pSuccess float64) bool {
	w := d.world
	p := d.procs[dp]
	pSuccess = w.anomalySuccessProb(p.key, pSuccess, d.now)
	w.vals[p.request]++
	w.vals[p.attempt]++
	r := d.rng.Float64()
	if r < pSuccess {
		w.vals[p.success]++
		d.drawDuration(p)
		return true
	}
	// Split the unhappy path: failure, timeout, reject, abort.
	rest := d.rng.Float64()
	switch {
	case rest < 0.45:
		w.vals[p.failure]++
		w.bumpFailureCause(p, d.rng)
	case rest < 0.70:
		w.vals[p.timeout]++
		w.vals[p.retransmission]++
	case rest < 0.90:
		w.vals[p.reject]++
		w.bumpRejectCause(p, d.rng)
	default:
		w.vals[p.abort]++
	}
	d.drawDuration(p)
	return false
}

// drawDuration draws the standard normal behind one duration of p and
// logs it for the rate stage, which records the duration in p's histogram:
// the draw keeps its place in the DES's stream, and math.Exp and the
// bucket walk run off the DES's goroutine.
func (d *des) drawDuration(p *proc) {
	d.drawn = append(d.drawn, duration{p, d.rng.NormFloat64()})
}

// duration is one procedure duration drawn by the DES, as the standard
// normal z it comes from.
type duration struct {
	p *proc
	z float64
}

// dispatch handles one lifecycle event, updating counters, gauges and
// scheduling follow-up events.
func (d *des) dispatch(e *event) {
	w := d.world
	switch e.kind {
	case evUEArrival:
		u := &ue{id: d.nextUE}
		d.nextUE++
		d.schedule(d.expo(1.0), evRegister, u)
		// Keep the arrival process going; a registration storm divides
		// the mean inter-arrival time by its magnitude.
		d.schedule(d.expo(w.cfg.UEInterarrival/w.anomalyArrivalFactor(d.now)), evUEArrival, nil)

	case evRegister:
		u := e.ue
		if d.outcome(procInitialRegistration, 0.96) {
			d.schedule(d.expo(0.5), evAuthenticate, u)
		} else {
			// Failed registrations retry after a backoff.
			d.schedule(d.expo(10), evRegister, u)
		}

	case evAuthenticate:
		u := e.ue
		if d.outcome(procN1Auth, 0.97) {
			d.outcome(procSMC, 0.995)
			d.outcome(procUECtxSetup, 0.99)
			u.state = ueRegistered
			w.move(w.ueGauges, 1)
			d.schedule(d.expo(5), evEstablishSession, u)
			d.schedule(d.expo(w.cfg.UELifetime), evDeregister, u)
			d.schedule(d.expo(240), evPeriodicUpdate, u)
			d.schedule(d.expo(90), evPage, u)
			d.schedule(d.expo(60), evHandover, u)
		} else {
			d.schedule(d.expo(15), evRegister, u)
		}

	case evEstablishSession:
		u := e.ue
		if u.state != ueRegistered && u.state != ueSession {
			return
		}
		ok1 := d.outcome(procSMCtxCreate, 0.985)
		ok2 := ok1 && d.outcome(procPDUSessionEstablishment, 0.95)
		if ok2 {
			d.outcome(procIPAlloc, 0.998)
			d.outcome(procN4SessionEstablishment, 0.99)
			d.outcome(procUPFSessionEstablishment, 0.99)
			d.outcome(procTunnelCreate, 0.995)
			d.outcome(procPDUResourceSetup, 0.98)
			u.state = ueSession
			u.sessions++
			w.move(w.sessionGauges, 1)
			d.schedule(d.expo(w.cfg.SessionLifetime), evReleaseSession, u)
		} else if u.state == ueRegistered {
			d.schedule(d.expo(20), evEstablishSession, u)
		}

	case evReleaseSession:
		u := e.ue
		if u.sessions == 0 {
			return
		}
		d.outcome(procPDUSessionRelease, 0.99)
		d.outcome(procSMCtxRelease, 0.995)
		d.outcome(procN4SessionDeletion, 0.995)
		d.outcome(procUPFSessionDeletion, 0.995)
		d.outcome(procTunnelDelete, 0.998)
		d.outcome(procPDUResourceRelease, 0.99)
		u.sessions--
		if u.sessions == 0 && u.state == ueSession {
			u.state = ueRegistered
		}
		w.move(w.sessionGauges, -1)
		if u.state != ueGone {
			d.schedule(d.expo(40), evEstablishSession, u)
		}

	case evHandover:
		u := e.ue
		if u.state == ueGone {
			return
		}
		if u.state == ueSession || u.state == ueRegistered {
			if d.rng.Float64() < 0.6 {
				d.outcome(procHOPreparation, 0.97)
				d.outcome(procHOResourceAllocation, 0.96)
				d.outcome(procHONotification, 0.99)
			} else {
				d.outcome(procPathSwitch, 0.98)
			}
			d.outcome(procMobilityRegistrationUpdate, 0.985)
		}
		d.schedule(d.expo(60), evHandover, u)

	case evPage:
		u := e.ue
		if u.state == ueGone {
			return
		}
		if u.state == ueRegistered {
			d.outcome(procPaging, 0.92)
			d.outcome(procServiceRequest, 0.97)
		}
		d.schedule(d.expo(90), evPage, u)

	case evPeriodicUpdate:
		u := e.ue
		if u.state == ueGone {
			return
		}
		d.outcome(procPeriodicRegistrationUpdate, 0.99)
		d.schedule(d.expo(240), evPeriodicUpdate, u)

	case evDeregister:
		u := e.ue
		if u.state == ueGone {
			return
		}
		for u.sessions > 0 {
			d.outcome(procPDUSessionRelease, 0.99)
			d.outcome(procTunnelDelete, 0.998)
			u.sessions--
			w.move(w.sessionGauges, -1)
		}
		d.outcome(procUEDeregistration, 0.99)
		d.outcome(procUECtxRelease, 0.995)
		u.state = ueGone
		w.move(w.ueGauges, -1)
	}
}
