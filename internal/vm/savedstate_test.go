package vm_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"esplang/internal/vm"
)

// mcSrc is a small manual-mode workload with a heap graph flowing
// through a rendezvous — the shape the model checker snapshots.
const mcSrc = `
type dataT = array of int
type msgT = record of { tag: int, data: dataT }
channel c: msgT
process producer {
    $n = 0;
    while (n < 3) {
        $d: dataT = { 2 -> n};
        out( c, { n, d});
        unlink( d);
        n = n + 1;
    }
}
process consumer {
    $n = 0;
    while (n < 3) {
        in( c, { $tag, $data});
        assert( data[0] >= 0);
        unlink( data);
        n = n + 1;
    }
}
`

func snapMachine(t *testing.T, src string) *vm.Machine {
	t.Helper()
	m := newMachine(t, src, vm.Config{Manual: true, MaxLiveObjects: 16})
	m.Cost = vm.ZeroCostModel()
	m.Settle()
	if f := m.Fault(); f != nil {
		t.Fatalf("settle fault: %v", f)
	}
	return m
}

// The TestSavedState* tests cover the state vector — the machine's one
// saved form: EncodeState writes it, DecodeState restores from it.

// TestSavedStateRoundTrip: encode, decode, encode gives identical bytes,
// and decoding after a transition brings the state back, transition
// after transition.
func TestSavedStateRoundTrip(t *testing.T) {
	m := snapMachine(t, mcSrc)
	for depth := 0; depth < 10; depth++ {
		comms := m.EnabledComms()
		if len(comms) == 0 {
			break
		}
		before := bytes.Clone(m.EncodeState())
		m.DecodeState(before)
		if got := m.EncodeState(); !bytes.Equal(got, before) {
			t.Fatalf("depth %d: encode-decode-encode differs:\nfirst  %x\nsecond %x", depth, before, got)
		}

		m.FireComm(comms[0])
		if f := m.Fault(); f != nil {
			t.Fatalf("depth %d: fault: %v", depth, f)
		}
		if bytes.Equal(m.EncodeState(), before) {
			t.Fatalf("depth %d: transition did not change the state vector", depth)
		}

		m.DecodeState(before)
		if got := m.EncodeState(); !bytes.Equal(got, before) {
			t.Fatalf("depth %d: decode does not restore:\nbefore %x\nafter  %x", depth, before, got)
		}
		// Advance for the next iteration.
		m.FireComm(comms[0])
	}
}

// TestSavedStateRestoreIntoSibling: a vector is self-contained, so
// decoding it into a different machine of the same program reproduces
// the state — the model checker's workers rely on exactly this.
func TestSavedStateRestoreIntoSibling(t *testing.T) {
	m1 := snapMachine(t, mcSrc)
	for i := 0; i < 3; i++ {
		comms := m1.EnabledComms()
		if len(comms) == 0 {
			break
		}
		m1.FireComm(comms[0])
	}
	want := bytes.Clone(m1.EncodeState())

	m2 := snapMachine(t, mcSrc)
	m2.DecodeState(want)
	if got := m2.EncodeState(); !bytes.Equal(got, want) {
		t.Fatalf("sibling decode diverges:\nwant %x\ngot  %x", want, got)
	}
	// The sibling must be able to continue executing from the decoded
	// state with identical behavior.
	c1, c2 := m1.EnabledComms(), m2.EnabledComms()
	if len(c1) != len(c2) {
		t.Fatalf("enabled comms diverge: %d vs %d", len(c1), len(c2))
	}
	if len(c1) > 0 {
		m1.FireComm(c1[0])
		m2.FireComm(c2[0])
		if !bytes.Equal(m1.EncodeState(), m2.EncodeState()) {
			t.Fatal("post-decode transitions diverge")
		}
	}
}

// TestSavedStateMatchesClone: decoding a vector reproduces the same
// semantic state as the (allocation-heavy) Clone, and both continue
// identically.
func TestSavedStateMatchesClone(t *testing.T) {
	m := snapMachine(t, mcSrc)
	for i := 0; i < 2; i++ {
		if comms := m.EnabledComms(); len(comms) > 0 {
			m.FireComm(comms[0])
		}
	}
	clone := m.Clone()
	m2 := snapMachine(t, mcSrc)
	m2.DecodeState(m.EncodeState())
	for step := 0; ; step++ {
		if !bytes.Equal(clone.EncodeState(), m2.EncodeState()) {
			t.Fatalf("step %d: Clone and DecodeState disagree on the semantic state", step)
		}
		c1, c2 := clone.EnabledComms(), m2.EnabledComms()
		if len(c1) != len(c2) {
			t.Fatalf("step %d: enabled comms diverge: %d vs %d", step, len(c1), len(c2))
		}
		if len(c1) == 0 {
			break
		}
		clone.FireComm(c1[0])
		m2.FireComm(c2[0])
	}
}

// TestSavedStateSteadyStateAllocFree: once the encode buffer and the
// decode pool have grown to the workload's size, decoding a vector and
// encoding the result allocate nothing.
func TestSavedStateSteadyStateAllocFree(t *testing.T) {
	m := snapMachine(t, mcSrc)
	vec := bytes.Clone(m.EncodeState())
	m.DecodeState(vec) // warm the object pool
	allocs := testing.AllocsPerRun(100, func() {
		m.DecodeState(vec)
		m.EncodeState()
	})
	if allocs > 0 {
		t.Errorf("steady-state DecodeState+EncodeState allocates %.1f objects per cycle, want 0", allocs)
	}
}

// TestSaveRejectsWaitQueueMode: wait queues are derivable state the
// vector does not carry, so DecodeState must refuse rather than
// silently drop them.
func TestSaveRejectsWaitQueueMode(t *testing.T) {
	m := newMachine(t, mcSrc, vm.Config{Manual: true, UseWaitQueues: true})
	vec := bytes.Clone(m.EncodeState())
	defer func() {
		if recover() == nil {
			t.Fatal("DecodeState in wait-queue mode did not panic")
		}
	}()
	m.DecodeState(vec)
}

// edgeSrc parks a machine on values the vector's fast paths do not
// cover: int64 extremes and negatives (scalar tags and big scalars), an
// object referenced twice (a back-reference), a freed object still held
// by a local (a tombstone), and a blocked sender whose pending record
// holds both.
const edgeSrc = `
const KMIN = -9223372036854775808;
const KMAX = 9223372036854775807;
type dataT = array of int
type pairT = record of { x: dataT, y: dataT }
channel c: pairT
channel never: int
process p {
    $lo = KMIN;
    $hi = KMAX;
    $neg = -5;
    $mid = -300;
    $d: dataT = { 2 -> KMIN};
    $e: dataT = { 1 -> KMAX};
    unlink( e);
    out( c, { d, d});
}
process q {
    in( never, $z);
}
`

// TestStateVectorEdgeCases: the edge values survive encode → decode →
// encode, in the same machine and in a sibling.
func TestStateVectorEdgeCases(t *testing.T) {
	m := snapMachine(t, edgeSrc)
	p := m.Procs[0]
	if p.Status != vm.PBlockedSend {
		t.Fatalf("sender status %v, want blocked send", p.Status)
	}
	vec := bytes.Clone(m.EncodeState())

	m2 := snapMachine(t, edgeSrc)
	m2.FireComm(vm.CommChoice{Sender: -1}) // fault: leaves junk behind
	m2.DecodeState(vec)
	if m2.Fault() != nil {
		t.Fatalf("decode left the fault set: %v", m2.Fault())
	}
	if got := m2.EncodeState(); !bytes.Equal(got, vec) {
		t.Fatalf("sibling decode differs:\nwant %x\ngot  %x", vec, got)
	}

	p2 := m2.Procs[0]
	ints := map[int64]bool{}
	var freed int
	for _, v := range p2.Locals {
		if !v.IsRef {
			ints[v.Int] = true
		} else if v.Ref != nil && v.Ref.Freed {
			freed++
		}
	}
	for _, want := range []int64{math.MinInt64, math.MaxInt64, -5, -300} {
		if !ints[want] {
			t.Errorf("local %d lost in decode (locals %v)", want, p2.Locals)
		}
	}
	if freed != 1 {
		t.Errorf("%d freed objects among the locals, want the one tombstone", freed)
	}
	pend := p2.Pending
	if !pend.IsRef || pend.Ref == nil || len(pend.Ref.Elems) != 2 {
		t.Fatalf("pending value not the pair record: %v", pend)
	}
	x, y := pend.Ref.Elems[0].Ref, pend.Ref.Elems[1].Ref
	if x == nil || x != y {
		t.Errorf("pending pair's fields decode to distinct objects %p, %p; want one shared", x, y)
	}
	if x != nil && x.Elems[0].Int != math.MinInt64 {
		t.Errorf("shared array holds %d, want KMIN", x.Elems[0].Int)
	}
	if p2.PendingFlags != p.PendingFlags {
		t.Errorf("pending flags %d, want %d", p2.PendingFlags, p.PendingFlags)
	}
}

// countSrc builds a scalar rendezvous loop: two processes meeting n
// times. Execution of this program must not allocate per operation —
// the guard for the interpreter's closure-free hot path.
func countSrc(n int) string {
	return fmt.Sprintf(`
channel c: int
channel doneC: int external reader
process ping {
    $i = 0;
    while (i < %d) {
        out( c, i);
        i = i + 1;
    }
}
process pong {
    $i = 0;
    while (i < %d) {
        in( c, $v);
        i = i + 1;
    }
    out( doneC, 1);
}
`, n, n)
}

// TestExecAllocsIndependentOfWorkload: the interpreter loops (both
// engines) perform no per-instruction or per-context-switch heap
// allocation: total Go allocations for a 10x longer scalar workload must
// not grow with it.
func TestExecAllocsIndependentOfWorkload(t *testing.T) {
	for _, engine := range []vm.Engine{vm.EngineBaseline, vm.EngineFused} {
		t.Run(engine.String(), func(t *testing.T) {
			run := func(n int) float64 {
				prog := compileSrc(t, countSrc(n))
				return testing.AllocsPerRun(10, func() {
					m := vm.New(prog, vm.Config{Engine: engine})
					if err := m.BindReader("doneC", &vm.CollectReader{}); err != nil {
						t.Fatal(err)
					}
					if res := m.Run(); res != vm.RunHalted {
						t.Fatalf("run: %v (fault %v)", res, m.Fault())
					}
				})
			}
			short, long := run(50), run(500)
			// Machine construction allocates a fixed amount; the 10x longer
			// run may only add scheduling-slice noise, not O(n) closures.
			if long > short+8 {
				t.Errorf("allocations scale with workload: %d iters -> %.0f allocs, %d iters -> %.0f allocs",
					50, short, 500, long)
			}
		})
	}
}

// BenchmarkExecAllocs reports allocs/op for the scalar rendezvous loop
// under both engines — the benchmark-time guard that the hot path stays
// allocation-free (check the allocs/op column).
func BenchmarkExecAllocs(b *testing.B) {
	for _, engine := range []vm.Engine{vm.EngineBaseline, vm.EngineFused} {
		b.Run(engine.String(), func(b *testing.B) {
			prog, err := compileBench(countSrc(200))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := vm.New(prog, vm.Config{Engine: engine})
				if err := m.BindReader("doneC", &vm.CollectReader{}); err != nil {
					b.Fatal(err)
				}
				if res := m.Run(); res != vm.RunHalted {
					b.Fatalf("run: %v", res)
				}
			}
		})
	}
}

// BenchmarkSaveRestore measures the model checker's per-transition state
// handling: decoding a stored vector plus encoding the machine.
func BenchmarkSaveRestore(b *testing.B) {
	prog, err := compileBench(mcSrc)
	if err != nil {
		b.Fatal(err)
	}
	m := vm.New(prog, vm.Config{Manual: true, MaxLiveObjects: 16})
	m.Cost = vm.ZeroCostModel()
	m.Settle()
	vec := bytes.Clone(m.EncodeState())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DecodeState(vec)
		m.EncodeState()
	}
}
