package obs

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// put records one event the way the VM does: name interned, proc/arg
// and kind/name packed into Record's words.
func put(r *FlightRecorder, ts int64, k EventKind, proc, arg int, name string) {
	r.Record(ts, PA(int32(proc), int32(arg)), NK(k, r.Intern(name)))
}

// fill records n synthetic events shaped like a real run — a process
// start, alternating rendezvous/allocs, and a matching stop — and
// publishes them (the writer-side Sync a Machine.Postmortem performs).
func fill(r *FlightRecorder, n int) {
	put(r, 0, EvProcStart, 0, 0, "p")
	for i := 1; i < n-1; i++ {
		if i%2 == 0 {
			put(r, int64(i), EvRendezvous, 0, 1, "c")
		} else {
			put(r, int64(i), EvAlloc, 0, i, "")
		}
	}
	put(r, int64(n-1), EvProcStop, 0, 0, "done")
	r.Sync()
}

func TestRecorderWraparound(t *testing.T) {
	r := NewFlightRecorder(8)
	if r.RingSize() != 8 {
		t.Fatalf("RingSize = %d, want 8", r.RingSize())
	}
	for i := 0; i < 100; i++ {
		put(r, int64(i), EvPoll, -1, 0, "ext")
	}
	r.Sync()
	if r.Total() != 100 {
		t.Errorf("Total = %d, want 100", r.Total())
	}
	if r.Dropped() != 92 {
		t.Errorf("Dropped = %d, want 92", r.Dropped())
	}
	evs := r.Snapshot(0)
	if len(evs) != 8 {
		t.Fatalf("Snapshot returned %d events, want 8 (ring size)", len(evs))
	}
	// The survivors are the newest 8, in order, with global sequence
	// numbers intact.
	for i, e := range evs {
		wantSeq := uint64(92 + i)
		if e.Seq != wantSeq || e.Ts != int64(92+i) || e.Kind != EvPoll {
			t.Errorf("event %d = seq %d ts %d kind %v, want seq %d ts %d poll",
				i, e.Seq, e.Ts, e.Kind, wantSeq, wantSeq)
		}
	}
	// last= caps the window from the new end.
	if got := r.Snapshot(3); len(got) != 3 || got[0].Seq != 97 {
		t.Errorf("Snapshot(3) = %d events starting at seq %d, want 3 from 97", len(got), got[0].Seq)
	}
}

// TestRecorderSizeClamped: rounding a size above 1<<62 up to a power of
// two overflows to 0 and never ends, and sizes far below that ask for
// gigabytes; both are clamped to MaxRingSize. The constructor runs in a
// goroutine so a hang fails the test instead of stalling the suite.
func TestRecorderSizeClamped(t *testing.T) {
	for _, size := range []int{MaxRingSize + 1, 1<<33 + 1, 1<<62 + 1, math.MaxInt} {
		done := make(chan int, 1)
		go func() { done <- NewFlightRecorder(size).RingSize() }()
		select {
		case n := <-done:
			if n > MaxRingSize {
				t.Errorf("NewFlightRecorder(%d).RingSize() = %d, want at most %d", size, n, MaxRingSize)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("NewFlightRecorder(%d) still running after 5s", size)
		}
	}
}

func TestRecorderDumpRoundTrip(t *testing.T) {
	r := NewFlightRecorder(0)
	fill(r, 20)
	r.Fault(20, 0, "boom")
	r.Sync()

	var buf bytes.Buffer
	if err := r.WriteDump(&buf, 0); err != nil {
		t.Fatal(err)
	}
	n, err := ValidatePostmortem(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidatePostmortem: %v\ndump:\n%s", err, buf.String())
	}
	if n != 21 {
		t.Errorf("validated %d events, want 21", n)
	}
	// The raw recorder doesn't know the machine's fault object (the VM's
	// Postmortem fills the header); the fault event itself is recorded.
	if !strings.Contains(buf.String(), "fault=1") || !strings.Contains(buf.String(), "\tfault\t") {
		t.Errorf("dump missing fault event:\n%s", buf.String())
	}
}

// TestRecorderDumpAfterWrap checks a dump whose window starts mid-stream
// still validates: sequence numbers open at recorded-shown and an
// unmatched stop is forgiven exactly because events were dropped.
func TestRecorderDumpAfterWrap(t *testing.T) {
	r := NewFlightRecorder(8)
	fill(r, 100) // start and most of the stream fall out of the ring
	var buf bytes.Buffer
	if err := r.WriteDump(&buf, 0); err != nil {
		t.Fatal(err)
	}
	n, err := ValidatePostmortem(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidatePostmortem after wrap: %v\ndump:\n%s", err, buf.String())
	}
	if n != 8 {
		t.Errorf("validated %d events, want 8", n)
	}
}

func TestValidatePostmortemRejectsCorruption(t *testing.T) {
	r := NewFlightRecorder(0)
	fill(r, 10)
	var buf bytes.Buffer
	if err := r.WriteDump(&buf, 0); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	corrupt := []struct {
		name string
		mod  func(string) string
	}{
		{"bad version", func(s string) string {
			return strings.Replace(s, "recorder v1", "recorder v9", 1)
		}},
		{"shown exceeds recorded", func(s string) string {
			return strings.Replace(s, "recorded=10", "recorded=3", 1)
		}},
		{"non-monotonic ts", func(s string) string {
			return strings.Replace(s, "\n5\t5\t", "\n5\t1\t", 1)
		}},
		{"seq gap", func(s string) string {
			return strings.Replace(s, "\n5\t5\t", "\n7\t5\t", 1)
		}},
		{"kind count mismatch", func(s string) string {
			return strings.Replace(s, "alloc=4", "alloc=5", 1)
		}},
		{"unknown kind", func(s string) string {
			return strings.Replace(s, "\talloc\t", "\tallocx\t", 1)
		}},
		{"truncated events", func(s string) string {
			i := strings.LastIndexByte(strings.TrimRight(s, "\n"), '\n')
			return s[:i+1]
		}},
	}
	for _, c := range corrupt {
		bad := c.mod(good)
		if bad == good {
			t.Fatalf("%s: corruption did not change the dump", c.name)
		}
		if _, err := ValidatePostmortem([]byte(bad)); err == nil {
			t.Errorf("%s: corrupted dump validated\n%s", c.name, bad)
		}
	}
}

func TestValidatePostmortemRejectsSpanViolations(t *testing.T) {
	// A start with no stop by the end of the dump is an unclosed span.
	r := NewFlightRecorder(0)
	put(r, 0, EvProcStart, 0, 0, "p")
	r.Sync()
	var buf bytes.Buffer
	if err := r.WriteDump(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidatePostmortem(buf.Bytes()); err == nil {
		t.Error("dump with unclosed span validated")
	}

	// A stop without a start is only legal when the ring dropped events;
	// with dropped=0 it must be rejected.
	r = NewFlightRecorder(0)
	put(r, 0, EvProcStop, 0, 0, "done")
	r.Sync()
	buf.Reset()
	if err := r.WriteDump(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidatePostmortem(buf.Bytes()); err == nil {
		t.Error("dump with orphan stop and no drops validated")
	}

	// Double start without an intervening stop.
	r = NewFlightRecorder(0)
	put(r, 0, EvProcStart, 0, 0, "p")
	put(r, 1, EvProcStart, 0, 0, "p")
	put(r, 2, EvProcStop, 0, 0, "done")
	put(r, 3, EvProcStop, 0, 0, "done")
	r.Sync()
	buf.Reset()
	if err := r.WriteDump(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidatePostmortem(buf.Bytes()); err == nil {
		t.Error("dump with double start validated")
	}
}

func TestRecorderChargeLines(t *testing.T) {
	r := NewFlightRecorder(0)
	fill(r, 6)
	d := r.Dump(0)
	d.ChargeCycles[KindInstr] = 120
	d.ChargeCounts[KindInstr] = 60
	d.ChargeCycles[KindRendezvous] = 16
	d.ChargeCounts[KindRendezvous] = 2
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# charge instr cycles=120 count=60", "# charge rendezvous cycles=16 count=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	if _, err := ValidatePostmortem(buf.Bytes()); err != nil {
		t.Fatalf("dump with charge lines does not validate: %v", err)
	}
	// A duplicated charge class must be rejected.
	dup := strings.Replace(out, "# charge rendezvous cycles=16 count=2",
		"# charge instr cycles=1 count=1", 1)
	if _, err := ValidatePostmortem([]byte(dup)); err == nil {
		t.Error("duplicate charge class validated")
	}
}

func TestRecorderWriteChromeBalances(t *testing.T) {
	// A window that opens mid-run (wrapped ring) has stops without starts
	// and starts without stops; the Chrome rendering must still balance.
	r := NewFlightRecorder(4)
	put(r, 0, EvProcStart, 0, 0, "a")
	put(r, 1, EvRendezvous, 0, 1, "c")
	put(r, 2, EvProcStop, 0, 0, "done") // start falls out of the window below
	put(r, 3, EvProcStart, 1, 0, "b")   // never stopped
	put(r, 4, EvRendezvous, 1, 0, "c")  // keeps the window busy
	r.Sync()
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf, 3); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("WriteChrome output invalid: %v\n%s", err, buf.String())
	}
	if n == 0 {
		t.Error("WriteChrome produced no events")
	}
}

func TestRecorderConcurrentRecording(t *testing.T) {
	// The recorder is shared with the telemetry server's /trace handler;
	// concurrent record and snapshot must be race-clean (run with -race).
	r := NewFlightRecorder(16)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			put(r, int64(i), EvRendezvous, 0, 1, "c")
		}
		r.Sync() // writer-side publish, like Machine.Postmortem
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			var buf bytes.Buffer
			_ = r.WriteDump(&buf, 8)
		}
	}()
	wg.Wait()
	if r.Total() != 500 {
		t.Errorf("Total = %d, want 500", r.Total())
	}
}

func TestRecorderZeroAllocSteadyState(t *testing.T) {
	r := NewFlightRecorder(32)
	// Warm up so every Name string the ring retains is already in place.
	for i := 0; i < 64; i++ {
		put(r, int64(i), EvRendezvous, 0, 1, "chan")
	}
	avg := testing.AllocsPerRun(500, func() {
		put(r, 1, EvRendezvous, 0, 1, "chan")
		put(r, 2, EvAlloc, 0, 3, "")
		put(r, 3, EvFree, 0, 2, "")
	})
	if avg != 0 {
		t.Errorf("steady-state recording allocates %.2f objects/op, want 0", avg)
	}
}

// TestEventLogRecordsEverything: a full recorder keeps every event —
// well past the staging buffer and the default ring — numbered
// consecutively from 0, and drops nothing.
func TestEventLogRecordsEverything(t *testing.T) {
	l := NewEventLog()
	const n = stageSize + DefaultRingSize + 37
	put(l, 0, EvProcStart, 0, 0, "p")
	for i := 1; i < n-2; i++ {
		put(l, int64(i), EvRendezvous, 0, 1, "c")
	}
	l.Fault(n-2, 0, "x")
	put(l, n-1, EvProcStop, 0, 0, "faulted")
	l.Sync()
	if l.Total() != n || l.Dropped() != 0 {
		t.Fatalf("Total = %d, Dropped = %d; want %d, 0", l.Total(), l.Dropped(), n)
	}
	evs := l.Snapshot(0)
	if len(evs) != n {
		t.Fatalf("Snapshot returned %d events, want %d", len(evs), n)
	}
	for i, e := range evs {
		if e.Seq != uint64(i) || e.Ts != int64(i) {
			t.Fatalf("event %d = seq %d ts %d, want seq and ts %d", i, e.Seq, e.Ts, i)
		}
	}
	for i, want := range map[int]EventKind{0: EvProcStart, 1: EvRendezvous, n - 2: EvFault, n - 1: EvProcStop} {
		if evs[i].Kind != want {
			t.Errorf("event %d kind = %v, want %v", i, evs[i].Kind, want)
		}
	}
	var buf bytes.Buffer
	if err := l.WriteDump(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if got, err := ValidatePostmortem(buf.Bytes()); err != nil || got != n {
		t.Errorf("full dump: %d events, err %v; want %d", got, err, n)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Seq: 7, Ts: 42, Kind: EvRendezvous, Proc: 1, Arg: 2, Name: "reqC"}
	if got, want := e.String(), "7\t42\trendezvous\t1\t2\treqC"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestParseEventKind(t *testing.T) {
	for k := EventKind(0); k < NumEventKinds; k++ {
		got, ok := parseEventKind(k.String())
		if !ok || got != k {
			t.Errorf("parseEventKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := parseEventKind("bogus"); ok {
		t.Error("parseEventKind accepted bogus kind")
	}
}

func TestDumpHeaderShape(t *testing.T) {
	r := NewFlightRecorder(0)
	fill(r, 5)
	var buf bytes.Buffer
	if err := r.WriteDump(&buf, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	if lines[0] != dumpVersion {
		t.Errorf("first line = %q, want %q", lines[0], dumpVersion)
	}
	want := fmt.Sprintf("# recorded=5 dropped=0 ring=%d shown=5", DefaultRingSize)
	if lines[1] != want {
		t.Errorf("totals line = %q, want %q", lines[1], want)
	}
	if lines[2] != "# fault: none" {
		t.Errorf("fault line = %q, want %q", lines[2], "# fault: none")
	}
}
