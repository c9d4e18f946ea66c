package vmmc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"esplang/internal/nic"
	"esplang/internal/obs"
)

// TestTracePingPongEquivalence checks the observability layer's core
// contract on the full testbed: attaching the recorders, profiler, and
// metrics must not change what the simulation computes.
func TestTracePingPongEquivalence(t *testing.T) {
	for _, flavor := range []Flavor{ESP, Orig} {
		plain, err := PingPong(flavor, nic.DefaultConfig(), 1024, 4)
		if err != nil {
			t.Fatalf("%s: plain: %v", flavor, err)
		}
		traced, _, _, _, err := TracePingPong(flavor, nic.DefaultConfig(), 1024, 4)
		if err != nil {
			t.Fatalf("%s: traced: %v", flavor, err)
		}
		if plain != traced {
			t.Errorf("%s: latency changed under tracing: %v ns plain, %v ns traced",
				flavor, plain, traced)
		}
	}
}

// TestTracePingPongTrace checks the trace itself: valid Chrome JSON,
// hardware tracks for both NICs, and (ESP flavor) process tracks and
// rendezvous events from both firmware VMs without track collisions.
func TestTracePingPongTrace(t *testing.T) {
	_, tr, prof, reg, err := TracePingPong(ESP, nic.DefaultConfig(), 1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
	if n == 0 {
		t.Fatal("trace is empty")
	}
	for _, want := range []string{"nic0 hostDMA", "nic1 sendDMA", "recvDMA", "vmmcESP run"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("trace missing %q", want)
		}
	}

	// Both firmware VMs' process tracks are present, each named for its
	// NIC, and no span of one machine lands on the other's track. NIC i
	// owns tracks [i*procTrackStride, i*procTrackStride+100).
	var f struct {
		TraceEvents []struct {
			Name, Ph string
			Tid      int64
			Args     struct{ Name string }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	trackName := map[int64]string{}
	var procTracks, rendezvous [2]int
	for _, e := range f.TraceEvents {
		nic := int(e.Tid / procTrackStride)
		vmTrack := e.Tid >= 0 && e.Tid%procTrackStride < 100 && nic < 2
		switch {
		case e.Ph == "M" && vmTrack:
			if !strings.HasPrefix(e.Args.Name, fmt.Sprintf("nic%d ", nic)) {
				t.Errorf("track %d is named %q, want prefix nic%d", e.Tid, e.Args.Name, nic)
			}
			trackName[e.Tid] = e.Args.Name
			procTracks[nic]++
		case e.Ph == "B" && vmTrack && e.Name != trackName[e.Tid]:
			t.Errorf("span %q on track %d named %q: tracks collide", e.Name, e.Tid, trackName[e.Tid])
		case strings.HasPrefix(e.Name, "rendezvous nic0 "):
			rendezvous[0]++
		case strings.HasPrefix(e.Name, "rendezvous nic1 "):
			rendezvous[1]++
		}
	}
	for i := range procTracks {
		if procTracks[i] == 0 || rendezvous[i] == 0 {
			t.Errorf("firmware VM %d: %d process tracks, %d rendezvous events; want both > 0",
				i, procTracks[i], rendezvous[i])
		}
	}

	if prof.TotalCycles() == 0 {
		t.Error("profiler recorded no cycles")
	}
	snap := reg.Snapshot()
	if snap.Counters["sim_events_total"] == 0 {
		t.Error("sim_events_total not collected")
	}
	if len(snap.Counters) == 0 {
		t.Error("no VM counters collected")
	}
}
