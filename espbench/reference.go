package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	esplang "esplang"
	"esplang/internal/vmmc"
)

// referenceJSON holds the trusted answers every run is checked against.
// It is produced by buildReference on the baseline interpreter, the
// differential-testing oracle; the benchmark's test rebuilds it and fails
// on any drift (go test -run TestReference -update rewrites it).
//
//go:embed reference.json
var referenceJSON []byte

type referenceTable struct {
	// Fig5 is the simulated one-way latency (ns) of each ping-pong point
	// and the bandwidth (MB/s) of each streaming point.
	Fig5 []fig5Answer `json:"fig5"`
	// Verify is each job's verdict and fault kind, with the exact state
	// and transition counts of the deterministic (Workers: 1) job.
	Verify []answer `json:"verify"`
}

type fig5Answer struct {
	point
	Value float64 `json:"value"`
}

var reference = mustLoadReference()

func mustLoadReference() referenceTable {
	var r referenceTable
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		panic(fmt.Sprintf("espbench: reference.json: %v", err))
	}
	return r
}

func (r referenceTable) fig5Value(p point) (float64, bool) {
	for _, a := range r.Fig5 {
		if a.point == p {
			return a.Value, true
		}
	}
	return 0, false
}

func (r referenceTable) answer(name string) (answer, bool) {
	for _, a := range r.Verify {
		if a.Name == name {
			return a, true
		}
	}
	return answer{}, false
}

// buildReference measures every Fig. 5 point type and runs every
// verification job on the baseline engine.
func buildReference() (referenceTable, error) {
	var r referenceTable
	saved := vmmc.Engine
	vmmc.Engine = esplang.EngineBaseline
	defer func() { vmmc.Engine = saved }()
	for _, p := range fig5Catalogue {
		v, err := p.simulate()
		if err != nil {
			return r, fmt.Errorf("%s: %w", p.name(), err)
		}
		r.Fig5 = append(r.Fig5, fig5Answer{p, v})
	}
	for _, j := range append(fullJobs(), porJobs()...) {
		o := j.opts
		o.Engine = esplang.EngineBaseline
		res, err := j.verify(o)
		if err != nil {
			return r, fmt.Errorf("%s: %w", j.Name, err)
		}
		if res.Truncated {
			return r, fmt.Errorf("%s: search truncated", j.Name)
		}
		r.Verify = append(r.Verify, j.outcome(res))
	}
	return r, nil
}
