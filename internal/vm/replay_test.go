package vm_test

import (
	"testing"

	"esplang/internal/vm"
)

// manualMachine builds a manual-mode machine and settles it.
func manualMachine(t *testing.T, src string) *vm.Machine {
	t.Helper()
	prog := compileSrc(t, src)
	m := vm.New(prog, vm.Config{Manual: true})
	m.Cost = vm.ZeroCostModel()
	m.Settle()
	return m
}

const replaySrc = `
channel c: int
channel d: int
process p1 { $i = 0; while (i < 4) { out( c, i); i = i + 1; } }
process p2 { $n = 0; while (n < 4) { in( c, $v); out( d, v * v); n = n + 1; } }
process p3 { $n = 0; while (n < 4) { in( d, $v); n = n + 1; } }
`

// TestReplayCommsReproducesStates: a recorded choice sequence, replayed
// on a fresh machine, passes through exactly the same encoded states —
// the determinism the model checker's counterexample reconstruction
// depends on.
func TestReplayCommsReproducesStates(t *testing.T) {
	m := manualMachine(t, replaySrc)
	var choices []vm.CommChoice
	var keys []string
	for len(choices) < 8 {
		comms := m.EnabledComms()
		if len(comms) == 0 {
			break
		}
		c := comms[len(comms)-1] // an arbitrary but deterministic pick
		m.FireComm(c)
		if m.Fault() != nil {
			t.Fatalf("unexpected fault: %v", m.Fault())
		}
		choices = append(choices, c)
		keys = append(keys, string(m.EncodeState()))
	}
	if len(choices) < 4 {
		t.Fatalf("path too short: %d transitions", len(choices))
	}

	r := manualMachine(t, replaySrc)
	for i, c := range choices {
		if f := r.ReplayComms([]vm.CommChoice{c}); f != nil {
			t.Fatalf("replay step %d faulted: %v", i, f)
		}
		if got := string(r.EncodeState()); got != keys[i] {
			t.Fatalf("replay diverged at step %d", i)
		}
	}
}

// TestReplayCommsStopsAtFault: replay returns the first fault and leaves
// the remaining choices unfired.
func TestReplayCommsStopsAtFault(t *testing.T) {
	src := `
channel c: int
process p { out( c, 1); out( c, 2); }
process q { in( c, $a); assert( a == 0); in( c, $b); }
`
	m := manualMachine(t, src)
	comms := m.EnabledComms()
	if len(comms) != 1 {
		t.Fatalf("want one enabled comm at the root, got %d", len(comms))
	}
	// Firing the first (and only) communication trips the assertion; the
	// bogus second choice must never fire.
	f := m.ReplayComms([]vm.CommChoice{comms[0], comms[0]})
	if f == nil || f.Kind != vm.FaultAssert {
		t.Fatalf("replay fault = %v, want assertion", f)
	}
}

// TestFireCommRejectsBadIndices: a corrupted recorded choice faults
// instead of panicking — replayed choices are data, not trusted input.
func TestFireCommRejectsBadIndices(t *testing.T) {
	m := manualMachine(t, replaySrc)
	m.FireComm(vm.CommChoice{Chan: 0, Sender: 99, SenderArm: -1, Receiver: 1, ReceiverArm: -1})
	if f := m.Fault(); f == nil || f.Kind != vm.FaultInternal {
		t.Fatalf("fault = %v, want internal fault on out-of-range process index", f)
	}
}
