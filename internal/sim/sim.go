// Package sim is a minimal discrete-event simulation kernel used by the
// Myrinet NIC model. Time is in nanoseconds; events at equal times fire
// in scheduling order (deterministic).
package sim

import (
	"esplang/internal/obs"
)

// Kernel is an event queue with a clock.
type Kernel struct {
	now int64
	seq int64
	pq  eventQueue

	// Cached metric instruments; nil when metrics are off, so the hot
	// Step path pays a nil check only.
	mEvents  *obs.Counter
	hPending *obs.Histogram
}

// SetMetrics attaches a metrics registry: every fired event bumps
// sim_events_total and samples sim_pending_events (queue depth after the
// pop, i.e. the backlog the event left behind). nil detaches.
func (k *Kernel) SetMetrics(reg *obs.Metrics) {
	if reg == nil {
		k.mEvents, k.hPending = nil, nil
		return
	}
	k.mEvents = reg.Counter("sim_events_total")
	k.hPending = reg.Histogram("sim_pending_events")
}

// New returns a kernel at time 0. The queue gets a small initial
// capacity: device models keep only a handful of events outstanding, and
// the first few heap growths were visible in benchmarks that build a
// kernel per iteration.
func New() *Kernel {
	return &Kernel{pq: make(eventQueue, 0, 16)}
}

// Now returns the current simulation time in nanoseconds.
func (k *Kernel) Now() int64 { return k.now }

// Handler is the face of event scheduling: a simulated device implements
// Fire and schedules itself with AtEvent, dispatching on the arg it
// passed. The NIC model fires thousands of events per benchmarked
// operation; handler events make each one allocation-free where a fresh
// closure per schedule dominated allocation profiles.
type Handler interface {
	Fire(arg int)
}

// AtEvent schedules h.Fire(arg) at absolute time t (clamped to now).
// Events at equal times fire in schedule order.
func (k *Kernel) AtEvent(t int64, h Handler, arg int) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	k.pq.push(event{time: t, seq: k.seq, h: h, arg: arg})
}

// AfterEvent schedules h.Fire(arg) d nanoseconds from now.
func (k *Kernel) AfterEvent(d int64, h Handler, arg int) {
	k.AtEvent(k.now+d, h, arg)
}

// Step fires the next event; it reports whether one existed.
func (k *Kernel) Step() bool {
	if len(k.pq) == 0 {
		return false
	}
	ev := k.pq.pop()
	k.now = ev.time
	if k.mEvents != nil {
		k.mEvents.Inc()
		k.hPending.Observe(int64(len(k.pq)))
	}
	ev.h.Fire(ev.arg)
	return true
}

// Run fires events until the queue is empty or the predicate (when
// non-nil) returns true. It returns the number of events fired.
func (k *Kernel) Run(stop func() bool) int {
	n := 0
	for {
		if stop != nil && stop() {
			return n
		}
		if !k.Step() {
			return n
		}
		n++
	}
}

// RunUntil fires events with time <= t, then sets the clock to t.
func (k *Kernel) RunUntil(t int64) int {
	n := 0
	for len(k.pq) > 0 && k.pq[0].time <= t {
		k.Step()
		n++
	}
	if k.now < t {
		k.now = t
	}
	return n
}

// Pending returns the number of queued events.
func (k *Kernel) Pending() int { return len(k.pq) }

type event struct {
	time int64
	seq  int64
	h    Handler
	arg  int
}

// eventQueue is a binary min-heap of events ordered by (time, seq),
// stored by value: pushing an event reuses the slice's spare capacity, so
// the simulation's hottest allocation site — one event node plus one
// interface box per schedule under the old container/heap version — costs
// nothing in steady state.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	ev := h[0]
	h[0] = h[n]
	h[n] = event{} // drop the handler reference
	*q = h[:n]
	h = h[:n]
	for i := 0; ; {
		left, right := 2*i+1, 2*i+2
		small := i
		if left < n && h.less(left, small) {
			small = left
		}
		if right < n && h.less(right, small) {
			small = right
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return ev
}
