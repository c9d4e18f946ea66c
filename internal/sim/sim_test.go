package sim

import (
	"testing"
	"testing/quick"
)

// script is a kernel with a test Handler: Fire(i) runs the i-th function
// scheduled through at/after, so each test reads as a list of timed
// actions.
type script struct {
	*Kernel
	fns []func()
}

func newScript() *script { return &script{Kernel: New()} }

func (s *script) Fire(arg int) { s.fns[arg]() }

// at schedules fn at absolute time t through AtEvent.
func (s *script) at(t int64, fn func()) {
	s.fns = append(s.fns, fn)
	s.AtEvent(t, s, len(s.fns)-1)
}

// after schedules fn d nanoseconds from now through AfterEvent.
func (s *script) after(d int64, fn func()) {
	s.fns = append(s.fns, fn)
	s.AfterEvent(d, s, len(s.fns)-1)
}

func TestEventOrdering(t *testing.T) {
	k := newScript()
	var order []int
	k.at(30, func() { order = append(order, 3) })
	k.at(10, func() { order = append(order, 1) })
	k.at(20, func() { order = append(order, 2) })
	k.Run(nil)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if k.Now() != 30 {
		t.Errorf("clock = %d, want 30", k.Now())
	}
}

func TestEqualTimesFIFO(t *testing.T) {
	k := newScript()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.at(5, func() { order = append(order, i) })
	}
	k.Run(nil)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events fired out of order: %v", order)
		}
	}
}

func TestAfterAndNesting(t *testing.T) {
	k := newScript()
	var times []int64
	k.after(10, func() {
		times = append(times, k.Now())
		k.after(5, func() {
			times = append(times, k.Now())
		})
	})
	k.Run(nil)
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Errorf("times = %v", times)
	}
}

func TestPastEventsClampToNow(t *testing.T) {
	k := newScript()
	k.at(100, func() {
		k.at(50, func() {
			if k.Now() != 100 {
				t.Errorf("past event fired at %d", k.Now())
			}
		})
	})
	k.Run(nil)
}

func TestRunUntil(t *testing.T) {
	k := newScript()
	fired := 0
	k.at(10, func() { fired++ })
	k.at(20, func() { fired++ })
	k.at(30, func() { fired++ })
	n := k.RunUntil(20)
	if n != 2 || fired != 2 {
		t.Errorf("fired %d events (returned %d), want 2", fired, n)
	}
	if k.Now() != 20 {
		t.Errorf("clock = %d, want 20", k.Now())
	}
	if k.Pending() != 1 {
		t.Errorf("pending = %d, want 1", k.Pending())
	}
}

func TestRunStopPredicate(t *testing.T) {
	k := newScript()
	fired := 0
	for i := int64(1); i <= 10; i++ {
		k.at(i, func() { fired++ })
	}
	k.Run(func() bool { return fired >= 3 })
	if fired != 3 {
		t.Errorf("fired = %d, want 3", fired)
	}
}

func TestStepEmpty(t *testing.T) {
	k := newScript()
	if k.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestMonotonicClockProperty(t *testing.T) {
	// Property: however events are scheduled, the clock never goes
	// backwards while running them.
	f := func(delays []uint16) bool {
		k := newScript()
		last := int64(-1)
		ok := true
		for _, d := range delays {
			k.at(int64(d), func() {
				if k.Now() < last {
					ok = false
				}
				last = k.Now()
			})
		}
		k.Run(nil)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
