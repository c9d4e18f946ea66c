package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// ChromeTracer records events in the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// the JSON that chrome://tracing and Perfetto load directly. Each ESP
// process becomes a named thread track; rendezvous, allocations, faults,
// and polls are instant events; the live-object count is a counter
// series; NIC DMA engines add hardware tracks through the SpanEmitter
// methods.
//
// VM events arrive as flight-recorder events (AddEvents); the simulated
// NIC drives it live as a SpanEmitter. It is not safe for concurrent
// use; the sim kernel is single-threaded, which is the only place it is
// installed.
type ChromeTracer struct {
	// Scale converts clock timestamps to the format's microseconds
	// (events are emitted at ts×Scale µs). Leave 1 for the VM cycle
	// clock (1 cycle renders as 1 µs); use 0.001 for the sim kernel's
	// nanosecond clock.
	Scale float64

	events []chromeEvent
	named  map[int64]bool
}

// NewChromeTracer returns a tracer using the given timestamp scale
// (µs per clock unit); 0 means 1.
func NewChromeTracer(scale float64) *ChromeTracer {
	if scale == 0 {
		scale = 1
	}
	return &ChromeTracer{Scale: scale, named: make(map[int64]bool)}
}

// chromeEvent is one trace-event record.
type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Ts   float64        `json:"ts"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

func (t *ChromeTracer) ts(v int64) float64 { return float64(v) * t.Scale }

func (t *ChromeTracer) add(e chromeEvent) { t.events = append(t.events, e) }

// Len returns the number of recorded events.
func (t *ChromeTracer) Len() int { return len(t.events) }

// ensureName emits the thread_name metadata record once per track.
func (t *ChromeTracer) ensureName(tid int64, name string) {
	if t.named == nil {
		t.named = make(map[int64]bool)
	}
	if t.named[tid] {
		return
	}
	t.named[tid] = true
	t.add(chromeEvent{Name: "thread_name", Ph: "M", Tid: tid,
		Args: map[string]any{"name": name}})
}

// --- VM events ---

// runtimeTid is the track for events with no process context (the idle
// loop's external polls, unattributed faults).
const runtimeTid = 999

// AddEvents renders recorded VM events (FlightRecorder.Snapshot) into
// the trace: each process becomes a thread track of B/E spans;
// rendezvous, faults and polls are instants; allocs and frees drive the
// live-object counter. Process ids are shifted by trackOff and prefix is
// prepended to process, channel and fault names, so several machines can
// share one timeline. Spans cut by a snapshot window are repaired: a
// stop whose start is not in evs opens at the window's first timestamp,
// and a span still open at the end closes at the last one — so live
// snapshots of a running machine still balance.
func (t *ChromeTracer) AddEvents(evs []Event, trackOff int, prefix string) {
	shift := func(proc int) int {
		if proc < 0 {
			return proc // -1 = external environment, not a track
		}
		return proc + trackOff
	}
	start := func(ts int64, tid int64, name string) {
		t.ensureName(tid, name)
		t.Begin(tid, name, ts)
	}
	stop := func(ts int64, tid int64, status string) {
		t.add(chromeEvent{Ph: "E", Tid: tid, Ts: t.ts(ts),
			Args: map[string]any{"status": status}})
	}
	depth := map[int64]int{}
	for _, e := range evs {
		proc := shift(e.Proc)
		tid := int64(proc)
		switch e.Kind {
		case EvProcStart:
			start(e.Ts, tid, prefix+e.Name)
			depth[tid]++
		case EvProcStop:
			if depth[tid] == 0 {
				// The matching start is outside the window; open the span
				// at the window boundary so B/E still balance.
				start(evs[0].Ts, tid, fmt.Sprintf("%sproc%d", prefix, e.Proc))
				depth[tid]++
			}
			stop(e.Ts, tid, e.Name)
			depth[tid]--
		case EvRendezvous:
			ch, receiver := prefix+e.Name, shift(e.Arg)
			if proc < 0 {
				tid = int64(receiver)
			}
			t.add(chromeEvent{Name: "rendezvous " + ch, Ph: "i", S: "t", Tid: tid, Ts: t.ts(e.Ts),
				Args: map[string]any{"chan": ch, "sender": proc, "receiver": receiver}})
		case EvAlloc, EvFree:
			t.add(chromeEvent{Name: "heap live objects", Ph: "C", Ts: t.ts(e.Ts),
				Args: map[string]any{"live": e.Arg}})
		case EvFault:
			if proc < 0 {
				tid = runtimeTid
			}
			t.add(chromeEvent{Name: "FAULT", Ph: "i", S: "g", Tid: tid, Ts: t.ts(e.Ts),
				Args: map[string]any{"msg": prefix + e.Name}})
		case EvPoll:
			t.ensureName(runtimeTid, "runtime (idle loop)")
			t.add(chromeEvent{Name: "poll " + prefix + e.Name, Ph: "i", S: "t", Tid: runtimeTid, Ts: t.ts(e.Ts)})
		}
	}
	if n := len(evs); n > 0 {
		end := evs[n-1].Ts
		for tid, d := range depth {
			for ; d > 0; d-- {
				stop(end, tid, "(snapshot)")
			}
		}
	}
}

// --- SpanEmitter (hardware / generic tracks) ---

// SetTrackName implements SpanEmitter.
func (t *ChromeTracer) SetTrackName(tid int64, name string) { t.ensureName(tid, name) }

// Begin implements SpanEmitter.
func (t *ChromeTracer) Begin(tid int64, name string, ts int64) {
	t.add(chromeEvent{Name: name, Ph: "B", Tid: tid, Ts: t.ts(ts)})
}

// End implements SpanEmitter.
func (t *ChromeTracer) End(tid int64, ts int64) {
	t.add(chromeEvent{Ph: "E", Tid: tid, Ts: t.ts(ts)})
}

// Instant implements SpanEmitter.
func (t *ChromeTracer) Instant(tid int64, name string, ts int64) {
	t.add(chromeEvent{Name: name, Ph: "i", S: "t", Tid: tid, Ts: t.ts(ts)})
}

// --- Export ---

// chromeFile is the top-level JSON object format.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Write writes the trace as Chrome trace-event JSON.
func (t *ChromeTracer) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	events := t.events
	if events == nil {
		events = []chromeEvent{}
	}
	return enc.Encode(chromeFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// ValidateChromeTrace parses data as Chrome trace-event JSON and checks
// the minimal structural invariants a viewer relies on: a traceEvents
// array whose every record has a phase, and whose B/E pairs balance per
// track. It returns the number of events.
func ValidateChromeTrace(data []byte) (int, error) {
	var f chromeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return 0, fmt.Errorf("trace JSON does not parse: %w", err)
	}
	if f.TraceEvents == nil {
		return 0, fmt.Errorf("trace JSON has no traceEvents array")
	}
	depth := map[int64]int{}
	for i, e := range f.TraceEvents {
		switch e.Ph {
		case "":
			return 0, fmt.Errorf("event %d has no phase", i)
		case "B":
			depth[e.Tid]++
		case "E":
			depth[e.Tid]--
			if depth[e.Tid] < 0 {
				return 0, fmt.Errorf("event %d: E without matching B on track %d", i, e.Tid)
			}
		}
	}
	for tid, d := range depth {
		if d != 0 {
			return 0, fmt.Errorf("track %d has %d unclosed span(s)", tid, d)
		}
	}
	return len(f.TraceEvents), nil
}
