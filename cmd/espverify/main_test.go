package main

import "testing"

// TestCheckLimits: a negative search bound is a usage error, not a
// vacuous pass, and -bits stays inside 6..mc.MaxBitstateBits.
func TestCheckLimits(t *testing.T) {
	for _, tc := range []struct {
		bits   uint
		bounds map[string]int
		ok     bool
	}{
		{24, nil, true},
		{24, map[string]int{"max-states": 0, "max-depth": 0, "max-objects": 0, "runs": 0, "workers": 0}, true},
		{24, map[string]int{"runs": 100, "workers": 2, "max-states": 1 << 20}, true},
		{24, map[string]int{"max-states": -1}, false},
		{24, map[string]int{"max-depth": -1}, false},
		{24, map[string]int{"max-objects": -1}, false},
		{24, map[string]int{"runs": -1, "workers": 2}, false},
		{24, map[string]int{"workers": -4}, false},
		{6, nil, true},
		{32, nil, true},
		{5, nil, false},
		{33, nil, false},
		{64, nil, false},
	} {
		err := checkLimits(tc.bits, tc.bounds)
		if (err == nil) != tc.ok {
			t.Errorf("checkLimits(%d, %v) = %v, want ok=%v", tc.bits, tc.bounds, err, tc.ok)
		}
	}
}
