package main

import (
	"math"
	"reflect"
	"testing"

	esplang "esplang"
	"esplang/internal/obs"
	"esplang/internal/vm"
)

func TestDistributeInputsRoundRobin(t *testing.T) {
	got := distributeInputs([]int64{1, 2, 3, 4, 5}, 2)
	want := [][]int64{{1, 3, 5}, {2, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("distributeInputs = %v, want %v", got, want)
	}
	if got := distributeInputs(nil, 3); len(got) != 3 {
		t.Errorf("empty inputs must still produce one (empty) feed per channel, got %v", got)
	}
}

func TestHasExtWriter(t *testing.T) {
	closed := esplang.MustCompile(`
channel c: int
process p { out( c, 1); }
process q { in( c, $v); }
`, esplang.CompileOptions{})
	if hasExtWriter(closed) {
		t.Error("closed program reported an external writer; esprun would block on stdin")
	}
	open := esplang.MustCompile(`
channel inC: int external writer
interface feed( out inC) { Put( $v) }
process p { in( inC, $v); }
`, esplang.CompileOptions{})
	if !hasExtWriter(open) {
		t.Error("external-writer program not detected")
	}
}

// TestBindChannelsRoundRobin runs a two-writer program end to end through
// the same binding path main uses: stdin integers must be dealt
// round-robin across the writer channels in declaration order, as the
// command documentation promises.
func TestBindChannelsRoundRobin(t *testing.T) {
	prog := esplang.MustCompile(`
channel aC: int external writer
channel bC: int external writer
channel outC: int external reader
interface feedA( out aC) { PutA( $v) }
interface feedB( out bC) { PutB( $v) }

process sum {
    $n = 0;
    while (n < 2) {
        in( aC, $x);
        in( bC, $y);
        out( outC, x * 100 + y);
        n = n + 1;
    }
}
`, esplang.CompileOptions{})
	m := prog.Machine(esplang.MachineConfig{})
	collect := &esplang.CollectReader{}
	err := bindChannels(prog, m, []int64{1, 2, 3, 4}, func(string) vm.ExternalReader { return collect })
	if err != nil {
		t.Fatal(err)
	}
	if res := m.Run(); res != vm.RunHalted {
		t.Fatalf("run: %v (fault: %v)", res, m.Fault())
	}
	// Round-robin: aC gets 1,3 and bC gets 2,4 — so sum emits 102, 304.
	var got []int64
	for _, v := range collect.Values {
		got = append(got, v.Int())
	}
	if want := []int64{102, 304}; !reflect.DeepEqual(got, want) {
		t.Errorf("outputs %v, want %v (inputs not dealt round-robin)", got, want)
	}
}

// TestBindChannelsRejectsCompositeWriter keeps the stdin contract honest:
// a writer channel whose interface case is not a single scalar cannot be
// fed integers.
func TestBindChannelsRejectsCompositeWriter(t *testing.T) {
	prog := esplang.MustCompile(`
type pair = record of { a: int, b: int }
channel inC: pair external writer
interface feed( out inC) { Put( {$a, $b}) }
process p { in( inC, {$a, $b}); }
`, esplang.CompileOptions{})
	m := prog.Machine(esplang.MachineConfig{})
	err := bindChannels(prog, m, nil, func(string) vm.ExternalReader { return &esplang.CollectReader{} })
	if err == nil {
		t.Error("composite-payload writer channel accepted for stdin feeding")
	}
}

// TestCheckPostmortem: -postmortem with -flight 0 and no -trace has no
// recorder to dump, so it is a usage error instead of a silently missing
// file. A -flight ring above obs.MaxRingSize is a usage error too, not a
// multi-gigabyte allocation or a hang.
func TestCheckPostmortem(t *testing.T) {
	for _, tc := range []struct {
		pm, trace string
		flight    int
		ok        bool
	}{
		{"pm.txt", "", 0, false},
		{"pm.txt", "", -1, false},
		{"pm.txt", "", 64, true},
		{"pm.txt", "t.json", 0, true},
		{"", "", 0, true},
		{"", "", obs.MaxRingSize, true},
		{"", "", obs.MaxRingSize + 1, false},
		{"pm.txt", "", 1<<62 + 1, false},
		{"", "t.json", math.MaxInt, false},
	} {
		err := checkRecorder(tc.flight, tc.pm, tc.trace)
		if (err == nil) != tc.ok {
			t.Errorf("checkRecorder(%d, %q, %q) = %v, want ok=%v", tc.flight, tc.pm, tc.trace, err, tc.ok)
		}
	}
}
