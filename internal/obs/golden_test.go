package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestChromeTraceGolden locks down the exact JSON the exporter emits for
// a fixed event script. Perfetto and chrome://tracing are external
// consumers, so the encoding (phase letters, scope letters, counter
// series, metadata records, field order) must not drift silently.
// Regenerate with: go test ./internal/obs -run Golden -update
func TestChromeTraceGolden(t *testing.T) {
	tr := NewChromeTracer(1)
	tr.AddEvents([]Event{
		{Ts: 10, Kind: EvProcStart, Proc: 0, Name: "producer"},
		{Ts: 14, Kind: EvRendezvous, Proc: 0, Arg: 1, Name: "c"},
		{Ts: 16, Kind: EvAlloc, Proc: 0, Arg: 1},
		{Ts: 20, Kind: EvProcStop, Proc: 0, Name: "blocked(send)"},
		{Ts: 20, Kind: EvProcStart, Proc: 1, Name: "consumer"},
		{Ts: 24, Kind: EvFree, Proc: 1, Arg: 0},
		{Ts: 26, Kind: EvPoll, Proc: -1, Name: "inC"},
		{Ts: 28, Kind: EvFault, Proc: 1, Name: "assertion failed"},
		{Ts: 30, Kind: EvProcStop, Proc: 1, Name: "faulted"},
	}, 0, "")
	tr.SetTrackName(100, "nic0 hostDMA")
	tr.Begin(100, "hostDMA 4096B", 12)
	tr.Instant(100, "lead 64B ready", 18)
	tr.End(100, 40)

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("golden trace invalid: %v", err)
	}

	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace output drifted from golden file\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
