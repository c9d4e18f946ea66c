package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// EventKind classifies one recorded execution event — one kind per VM
// event site.
type EventKind uint8

// Recorded event kinds.
const (
	EvProcStart EventKind = iota
	EvProcStop
	EvRendezvous
	EvAlloc
	EvFree
	EvFault
	EvPoll
	NumEventKinds
)

var evKindNames = [NumEventKinds]string{
	EvProcStart:  "start",
	EvProcStop:   "stop",
	EvRendezvous: "rendezvous",
	EvAlloc:      "alloc",
	EvFree:       "free",
	EvFault:      "fault",
	EvPoll:       "poll",
}

func (k EventKind) String() string {
	if k < NumEventKinds {
		return evKindNames[k]
	}
	return "event?"
}

// parseEventKind is the inverse of EventKind.String.
func parseEventKind(s string) (EventKind, bool) {
	for k, n := range evKindNames {
		if n == s {
			return EventKind(k), true
		}
	}
	return 0, false
}

// Event is one recorded execution event. The field meaning varies by
// kind:
//
//	start       Proc = process id            Name = process name
//	stop        Proc = process id            Name = scheduling status
//	rendezvous  Proc = sender, Arg = receiver, Name = channel (-1 = external)
//	alloc/free  Proc = process id (-1 = none), Arg = live objects after
//	fault       Proc = process id (-1 = none), Name = fault message
//	poll        Name = channel
//
// Ts is the machine clock at the event: VM cycles unless a clock is
// installed, so in a postmortem it reads as "cycle".
type Event struct {
	Seq  uint64
	Ts   int64
	Kind EventKind
	Proc int
	Arg  int
	Name string
}

// String renders the event in the postmortem dump format: six
// tab-separated columns (seq, ts, kind, proc, arg, name), name last so a
// fault message may contain spaces.
func (e Event) String() string {
	return fmt.Sprintf("%d\t%d\t%s\t%d\t%d\t%s", e.Seq, e.Ts, e.Kind, e.Proc, e.Arg, e.Name)
}

// DefaultRingSize is the flight-recorder ring capacity when none is
// given: enough history for a useful postmortem, small enough to pin.
const DefaultRingSize = 256

// PostmortemEvents is the last-K window rendered into fault postmortems.
const PostmortemEvents = 64

// stageSize is the writer-local staging buffer: events are flushed into
// the shared ring (and become visible to concurrent snapshots) in
// batches of this many, so the recording hot path pays the ring mutex
// once per stageSize events instead of once per event.
const stageSize = 256

// rawEvent is the in-ring representation of one event. It is
// deliberately pointer-free — the name is an interned ID, not a string —
// so recording one costs three scalar stores with no GC write barrier,
// and a Sync flush is a plain memmove. proc/arg and kind/name are packed
// two to a word (PA, NK) to keep Record under the inlining budget.
type rawEvent struct {
	ts int64
	pa uint64 // PA(proc, arg)
	nk uint64 // NK(kind, name)
}

// PA packs a process ID and argument for Record.
func PA(proc, arg int32) uint64 {
	return uint64(uint32(proc))<<32 | uint64(uint32(arg))
}

// NK packs an event kind and interned name ID for Record.
func NK(k EventKind, name uint32) uint64 {
	return uint64(k)<<32 | uint64(name)
}

// FlightRecorder is the VM's event sink: a ring buffer of execution
// events. A bounded recorder (NewFlightRecorder) never grows: the ring
// and staging buffer are allocated once, every record overwrites the
// oldest slot, and recording allocates nothing — cheap enough to leave
// attached to a production machine so that when a fault finally
// happens, the last events leading up to it are already in hand
// (WriteDump / WriteChrome). A full recorder (NewEventLog) grows its
// ring instead of overwriting, keeping the whole stream for Chrome
// traces and whole-stream comparisons.
//
// The recorder is single-writer, multi-reader: one goroutine records
// (the VM), while any number of goroutines snapshot (Snapshot, Dump,
// WriteChrome — the telemetry server's /trace). Records land in a
// writer-local staging buffer and flush to the mutex-guarded ring every
// stageSize events, so concurrent snapshots may lag the writer by up to
// stageSize events. The writer calls Sync (Machine.Postmortem does) to
// publish the tail before reading its own events.
//
// Event names (channel names, process names, fault messages) are
// interned: Intern maps a string to a stable uint32 once, and Record
// takes the ID, keeping strings — and their GC write barriers — out of
// the hot path entirely. The VM interns every name it can emit at
// SetRecorder time.
type FlightRecorder struct {
	// Writer-local state: owned by the recording goroutine, untouched
	// by snapshots. seq is the next event's global sequence number (its
	// low bits index the stage), flushed is how much of seq has been
	// published to the ring, and ids is the writer's interning index
	// into names.
	stage   [stageSize]rawEvent
	seq     uint64
	flushed uint64
	ids     map[string]uint32

	mu    sync.Mutex
	ring  []rawEvent // power-of-two length; guarded by mu
	total uint64     // events flushed into the ring; guarded by mu
	names []string   // id → name; appended by Intern, read by snapshots
	full  bool       // grow the ring in Sync instead of overwriting
}

// MaxRingSize is the largest flight-recorder ring capacity: 1<<20
// events, 24 MB at 24 bytes per event.
const MaxRingSize = 1 << 20

// NewFlightRecorder returns a recorder with the given ring capacity,
// rounded up to a power of two (DefaultRingSize when size <= 0) and
// clamped to MaxRingSize.
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultRingSize
	}
	size = min(size, MaxRingSize)
	n := 1
	for n < size {
		n <<= 1
	}
	return &FlightRecorder{
		ring:  make([]rawEvent, n),
		ids:   map[string]uint32{"": 0},
		names: []string{""},
	}
}

// NewEventLog returns a full recorder: Record is unchanged, but Sync
// grows the ring instead of overwriting, so Snapshot(0) after Sync
// returns every event since the start, numbered from 0. Dropped is
// always 0. This is the sink for Chrome traces and for harnesses (the
// differential fuzzer, the engine differential tests) that compare
// whole event streams.
func NewEventLog() *FlightRecorder {
	r := NewFlightRecorder(DefaultRingSize)
	r.full = true
	return r
}

// Intern returns the stable ID for name, assigning one on first use.
// Like recording itself, only the recording goroutine may call it.
func (r *FlightRecorder) Intern(name string) uint32 {
	if id, ok := r.ids[name]; ok {
		return id
	}
	r.mu.Lock()
	id := uint32(len(r.names))
	r.names = append(r.names, name)
	r.mu.Unlock()
	r.ids[name] = id
	return id
}

// Record appends one event, with proc/arg packed by PA and kind/name
// packed by NK. This is the recorder's hot path, kept small enough for
// the compiler to inline into the VM's trace sites: the steady-state
// cost is one compare and four scalar stores. The event's stage slot is
// its sequence number's low bits, so when the writer laps the stage
// (every stageSize events) Sync publishes the full batch before slot 0
// is overwritten.
func (r *FlightRecorder) Record(ts int64, pa, nk uint64) {
	n := uint(r.seq) & (stageSize - 1)
	if n == 0 {
		r.Sync() // no-op on the very first event, a full flush after
	}
	r.stage[n] = rawEvent{ts, pa, nk}
	r.seq++
}

// Sync publishes staged events into the shared ring. Only the recording
// goroutine may call it (Machine.Postmortem does, so writer-side dumps
// are always current); snapshots from other goroutines simply see the
// ring as of the last flush. Unflushed events never span a stage
// boundary — Record flushes when it laps — so the unflushed run is
// contiguous in the stage.
func (r *FlightRecorder) Sync() {
	s := r.seq
	if s == r.flushed {
		return
	}
	first := r.flushed
	lo := int(first & (stageSize - 1))
	src := r.stage[lo : lo+int(s-first)]
	r.mu.Lock()
	if r.full && s > uint64(len(r.ring)) {
		// Nothing was ever dropped, so event seq sits at index seq and
		// the old ring is a prefix of the grown one.
		n := len(r.ring)
		for uint64(n) < s {
			n <<= 1
		}
		ring := make([]rawEvent, n)
		copy(ring, r.ring)
		r.ring = ring
	}
	if len(src) > len(r.ring) {
		// Stage bigger than the whole ring: only the tail survives.
		first += uint64(len(src) - len(r.ring))
		src = src[len(src)-len(r.ring):]
	}
	// Consecutive sequence numbers land in consecutive ring slots, so
	// the flush is at most two contiguous copies (one wrap).
	i := int(first & uint64(len(r.ring)-1))
	n := copy(r.ring[i:], src)
	copy(r.ring, src[n:])
	r.total = s
	r.mu.Unlock()
	r.flushed = s
}

// Fault records a fault event, interning msg on the call: fault
// messages are not known ahead of time, and a machine faults at most
// once.
func (r *FlightRecorder) Fault(ts int64, proc int, msg string) {
	r.Record(ts, PA(int32(proc), 0), NK(EvFault, r.Intern(msg)))
}

// Total returns the number of events ever recorded.
func (r *FlightRecorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many events have been overwritten by ring
// wraparound (always 0 for a full recorder).
func (r *FlightRecorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped()
}

func (r *FlightRecorder) dropped() uint64 {
	if r.total > uint64(len(r.ring)) {
		return r.total - uint64(len(r.ring))
	}
	return 0
}

// RingSize returns the ring capacity (a full recorder's grows).
func (r *FlightRecorder) RingSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}

// Snapshot copies out the last `last` retained events in order (all
// retained events when last <= 0). Safe to call while the machine is
// recording.
func (r *FlightRecorder) Snapshot(last int) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked(last)
}

func (r *FlightRecorder) snapshotLocked(last int) []Event {
	n := len(r.ring)
	if r.total < uint64(n) {
		n = int(r.total)
	}
	if last > 0 && last < n {
		n = last
	}
	out := make([]Event, n)
	mask := uint64(len(r.ring) - 1)
	for i := 0; i < n; i++ {
		seq := r.total - uint64(n) + uint64(i)
		e := &r.ring[seq&mask]
		out[i] = Event{
			Seq:  seq,
			Ts:   e.ts,
			Kind: EventKind(e.nk >> 32),
			Proc: int(int32(uint32(e.pa >> 32))),
			Arg:  int(int32(uint32(e.pa))),
			Name: r.names[uint32(e.nk)],
		}
	}
	return out
}

// dumpVersion is the first line of every flight-recorder dump; bump it
// when the format changes.
const dumpVersion = "# esp flight recorder v1"

// Dump is one rendered flight-recorder postmortem: the event window plus
// the header facts Write emits and ValidatePostmortem checks. The charge
// table attributes the run's cycle meter to CostModel classes; the VM
// fills it from Stats × CostModel (an exact decomposition, identical
// across engines), so a plain recorder dump leaves it zero and the
// charge lines are simply absent.
type Dump struct {
	Events         []Event
	Total, Dropped uint64
	Ring           int
	Fault          string // the machine's fault rendering; "" = clean run
	ChargeCycles   [NumKinds]int64
	ChargeCounts   [NumKinds]int64
}

// Dump snapshots the last `last` retained events (all when last <= 0)
// with the recorder's totals, ready for Write.
func (r *FlightRecorder) Dump(last int) *Dump {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Dump{
		Events:  r.snapshotLocked(last),
		Total:   r.total,
		Dropped: r.dropped(),
		Ring:    len(r.ring),
	}
}

// Write renders the dump in the text postmortem format: a commented
// header (version, totals, the fault if any, per-kind event counts of
// the shown window, per-class cycle charges), then one tab-separated
// line per event. ValidatePostmortem checks the result; obscheck
// -postmortem exposes that check.
func (d *Dump) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, dumpVersion)
	fmt.Fprintf(bw, "# recorded=%d dropped=%d ring=%d shown=%d\n", d.Total, d.Dropped, d.Ring, len(d.Events))
	fault := d.Fault
	if fault == "" {
		fault = "none"
	}
	fmt.Fprintf(bw, "# fault: %s\n", fault)
	var kinds [NumEventKinds]int
	for _, e := range d.Events {
		if e.Kind < NumEventKinds {
			kinds[e.Kind]++
		}
	}
	fmt.Fprint(bw, "# kinds")
	for k := EventKind(0); k < NumEventKinds; k++ {
		fmt.Fprintf(bw, " %s=%d", k, kinds[k])
	}
	fmt.Fprintln(bw)
	for k := Kind(0); k < NumKinds; k++ {
		if d.ChargeCounts[k] != 0 {
			fmt.Fprintf(bw, "# charge %s cycles=%d count=%d\n", k, d.ChargeCycles[k], d.ChargeCounts[k])
		}
	}
	for _, e := range d.Events {
		fmt.Fprintln(bw, e.String())
	}
	return bw.Flush()
}

// WriteDump renders the last `last` retained events (all when last <= 0)
// as the text postmortem format, with no fault and no charge table — the
// plain-recorder convenience over Dump().Write. The VM's
// Machine.Postmortem is the full-fat path.
func (r *FlightRecorder) WriteDump(w io.Writer, last int) error {
	return r.Dump(last).Write(w)
}

// WriteChrome renders the last `last` retained events (all when last <= 0)
// as Chrome trace-event JSON, the same format obscheck -trace validates.
// Spans cut by the window are repaired (ChromeTracer.AddEvents), so live
// snapshots from a running machine still balance.
func (r *FlightRecorder) WriteChrome(w io.Writer, last int) error {
	tr := NewChromeTracer(1)
	tr.AddEvents(r.Snapshot(last), 0, "")
	return tr.Write(w)
}

// ValidatePostmortem parses data as a WriteDump flight-recorder dump and
// checks its structural invariants:
//
//   - version header, totals line, fault line, per-kind count line;
//   - sequence numbers consecutive from recorded-shown;
//   - timestamps (cycles) monotonically nondecreasing;
//   - every event kind known, and the per-kind counts in the header
//     matching the events actually present;
//   - charge lines naming valid charge classes, at most once each;
//   - start/stop spans balanced per process — a stop without a start is
//     tolerated only when ring wraparound dropped the prefix, and every
//     span must be closed by the end of the dump.
//
// It returns the number of event lines.
func ValidatePostmortem(data []byte) (int, error) {
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return 0, fmt.Errorf("empty dump")
	}
	if sc.Text() != dumpVersion {
		return 0, fmt.Errorf("bad version line %q (want %q)", sc.Text(), dumpVersion)
	}
	if !sc.Scan() {
		return 0, fmt.Errorf("missing totals line")
	}
	var recorded, dropped, ring, shown uint64
	if _, err := fmt.Sscanf(sc.Text(), "# recorded=%d dropped=%d ring=%d shown=%d", &recorded, &dropped, &ring, &shown); err != nil {
		return 0, fmt.Errorf("bad totals line %q: %v", sc.Text(), err)
	}
	if dropped > recorded {
		return 0, fmt.Errorf("dropped=%d exceeds recorded=%d", dropped, recorded)
	}
	if shown > ring || shown > recorded {
		return 0, fmt.Errorf("shown=%d exceeds ring=%d or recorded=%d", shown, ring, recorded)
	}
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), "# fault: ") {
		return 0, fmt.Errorf("missing fault line")
	}
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), "# kinds ") {
		return 0, fmt.Errorf("missing kinds line")
	}
	wantKinds := [NumEventKinds]int{}
	for _, f := range strings.Fields(sc.Text())[2:] {
		name, val, ok := strings.Cut(f, "=")
		if !ok {
			return 0, fmt.Errorf("bad kinds field %q", f)
		}
		k, ok := parseEventKind(name)
		if !ok {
			return 0, fmt.Errorf("kinds line names unknown event kind %q", name)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("bad kind count %q", f)
		}
		wantKinds[k] = n
	}

	type span struct{ running, sawStart bool }
	procs := map[int]*span{}
	gotKinds := [NumEventKinds]int{}
	chargeSeen := map[string]bool{}
	events := 0
	var prevTs int64
	nextSeq := recorded - shown
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# charge ") {
			if events > 0 {
				return 0, fmt.Errorf("charge line after first event: %q", line)
			}
			var kname string
			var cycles, count int64
			if _, err := fmt.Sscanf(line, "# charge %s cycles=%d count=%d", &kname, &cycles, &count); err != nil {
				return 0, fmt.Errorf("bad charge line %q: %v", line, err)
			}
			valid := false
			for k := Kind(0); k < NumKinds; k++ {
				if k.String() == kname {
					valid = true
				}
			}
			if !valid {
				return 0, fmt.Errorf("charge line names unknown charge class %q", kname)
			}
			if chargeSeen[kname] {
				return 0, fmt.Errorf("duplicate charge line for %q", kname)
			}
			chargeSeen[kname] = true
			if cycles < 0 || count <= 0 {
				return 0, fmt.Errorf("bad charge values in %q", line)
			}
			continue
		}
		parts := strings.SplitN(line, "\t", 6)
		if len(parts) != 6 {
			return 0, fmt.Errorf("event line %d has %d columns, want 6: %q", events, len(parts), line)
		}
		seq, err := strconv.ParseUint(parts[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("event line %d: bad seq %q", events, parts[0])
		}
		if seq != nextSeq {
			return 0, fmt.Errorf("event line %d: seq %d, want %d (consecutive from recorded-shown)", events, seq, nextSeq)
		}
		nextSeq++
		ts, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("event line %d: bad timestamp %q", events, parts[1])
		}
		if events > 0 && ts < prevTs {
			return 0, fmt.Errorf("event line %d: cycle %d goes backwards (previous %d)", events, ts, prevTs)
		}
		prevTs = ts
		k, ok := parseEventKind(parts[2])
		if !ok {
			return 0, fmt.Errorf("event line %d: unknown kind %q", events, parts[2])
		}
		gotKinds[k]++
		proc, err := strconv.Atoi(parts[3])
		if err != nil {
			return 0, fmt.Errorf("event line %d: bad proc %q", events, parts[3])
		}
		if _, err := strconv.Atoi(parts[4]); err != nil {
			return 0, fmt.Errorf("event line %d: bad arg %q", events, parts[4])
		}
		switch k {
		case EvProcStart:
			s := procs[proc]
			if s == nil {
				s = &span{}
				procs[proc] = s
			}
			if s.running {
				return 0, fmt.Errorf("event line %d: process %d started twice without a stop", events, proc)
			}
			s.running, s.sawStart = true, true
		case EvProcStop:
			s := procs[proc]
			if s == nil {
				s = &span{}
				procs[proc] = s
			}
			switch {
			case s.running:
				s.running = false
			case !s.sawStart && dropped > 0:
				// The start fell off the ring before the window; the stop
				// closes a pre-window span.
				s.sawStart = true
			default:
				return 0, fmt.Errorf("event line %d: stop for process %d without a start", events, proc)
			}
		}
		events++
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if uint64(events) != shown {
		return 0, fmt.Errorf("dump has %d event lines but header says shown=%d", events, shown)
	}
	for proc, s := range procs {
		if s.running {
			return 0, fmt.Errorf("process %d has an unclosed span at end of dump", proc)
		}
	}
	for k := EventKind(0); k < NumEventKinds; k++ {
		if gotKinds[k] != wantKinds[k] {
			return 0, fmt.Errorf("kind %s: header says %d events, dump has %d", k, wantKinds[k], gotKinds[k])
		}
	}
	return events, nil
}
