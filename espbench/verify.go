package main

import (
	"fmt"
	"math/rand"
	"time"

	esplang "esplang"
	"esplang/internal/nic"
	"esplang/internal/vmmc"
)

// job is one verification run with a known answer.
type job struct {
	Name string `json:"name"`
	// src is the model's source, compiled again in every set-up
	// repetition after the first.
	src string
	// verify calls the vmmc entry point.
	verify func(opts esplang.VerifyOptions) (*esplang.VerifyResult, error)
	opts   esplang.VerifyOptions
	// exact: the search is deterministic (Workers: 1), so the state and
	// transition counts are part of the known answer.
	exact bool
}

var verifyCfg = nic.DefaultConfig()

func firmwareJob(msgs int) job {
	return job{
		Name: fmt.Sprintf("firmware-msgs%d", msgs),
		src:  vmmc.FirmwareModel(verifyCfg, msgs),
		verify: func(o esplang.VerifyOptions) (*esplang.VerifyResult, error) {
			return vmmc.VerifyFirmware(verifyCfg, msgs, o)
		},
	}
}

func twoNodeJob(msgs int) job {
	return job{
		Name: fmt.Sprintf("twonode-msgs%d", msgs),
		src:  vmmc.TwoNodeModel(verifyCfg, msgs),
		verify: func(o esplang.VerifyOptions) (*esplang.VerifyResult, error) {
			return vmmc.VerifyTwoNode(verifyCfg, msgs, o)
		},
	}
}

func memSafetyJob(bug vmmc.MemBug) job {
	return job{
		Name: "memsafety-" + bug.String(),
		src:  vmmc.MemSafetyModel(bug),
		verify: func(o esplang.VerifyOptions) (*esplang.VerifyResult, error) {
			return vmmc.VerifyMemSafety(bug, o)
		},
	}
}

func retransJob(buggy bool) job {
	const window, msgs = 2, 3
	name := "retrans-clean"
	if buggy {
		name = "retrans-buggy"
	}
	return job{
		Name: name,
		src:  vmmc.RetransModel(window, msgs, buggy),
		verify: func(o esplang.VerifyOptions) (*esplang.VerifyResult, error) {
			return vmmc.VerifyRetrans(window, msgs, buggy, o)
		},
	}
}

// fullJobs is verify-full: the firmware model with MSGS=4, searched
// exhaustively without reduction by one worker.
func fullJobs() []job {
	j := firmwareJob(4)
	j.opts = esplang.VerifyOptions{Workers: 1, Reduction: esplang.NoReduction}
	j.exact = true
	return []job{j}
}

// porJobs is verify-por: the firmware verification suite under the
// espverify -por configuration with two workers.
func porJobs() []job {
	jobs := []job{
		firmwareJob(5), twoNodeJob(5),
		memSafetyJob(vmmc.BugNone), memSafetyJob(vmmc.BugLeak),
		memSafetyJob(vmmc.BugUseAfterFree), memSafetyJob(vmmc.BugDoubleFree),
		retransJob(false), retransJob(true),
	}
	for i := range jobs {
		jobs[i].opts = esplang.VerifyOptions{Workers: 2, Reduction: esplang.AmpleSets}
	}
	return jobs
}

func verifyFullWorkload() *workload { return verifyWorkload("verify-full", fullJobs()) }
func verifyPORWorkload() *workload  { return verifyWorkload("verify-por", porJobs()) }

func verifyWorkload(name string, jobs []job) *workload {
	type jobParams struct {
		Name      string
		Workers   int
		Reduction string
		Engine    string
	}
	params := make([]jobParams, len(jobs))
	for i, j := range jobs {
		params[i] = jobParams{j.Name, j.opts.Workers, j.opts.Reduction.String(), j.opts.Engine.String()}
	}
	return &workload{
		name:   name,
		params: map[string]any{"jobs": params},
		setup: func(rep int) error {
			for _, j := range jobs {
				if rep == 0 {
					// Fill vmmc's model cache through the public entry
					// point; the search stops at the initial state.
					o := j.opts
					o.MaxStates = 1
					if _, err := j.verify(o); err != nil {
						return err
					}
					continue
				}
				if _, err := esplang.Compile(j.src, esplang.CompileOptions{Name: j.Name}); err != nil {
					return err
				}
			}
			return nil
		},
		pass: func(rng *rand.Rand) []item {
			items := make([]item, len(jobs))
			for i, k := range rng.Perm(len(jobs)) {
				items[i] = jobs[k]
			}
			return items
		},
		beforeItem: collectGarbage,
	}
}

func (j job) name() string { return j.Name }

func (j job) run() (int64, error) {
	res, err := j.verify(j.opts)
	if err != nil {
		return 0, err
	}
	return int64(res.Transitions), j.check(res)
}

// answer is a job's outcome in the known-answer table.
type answer struct {
	Name    string `json:"name"`
	Verdict string `json:"verdict"` // pass, deadlock or fault
	Fault   string `json:"fault,omitempty"`
	// States and Transitions are recorded for deterministic jobs only.
	States      int `json:"states,omitempty"`
	Transitions int `json:"transitions,omitempty"`
}

func (j job) outcome(res *esplang.VerifyResult) answer {
	a := answer{Name: j.Name, Verdict: "pass"}
	if v := res.Violation; v != nil {
		a.Verdict = "deadlock"
		if v.Fault != nil {
			a.Verdict, a.Fault = "fault", v.Fault.Kind.String()
		}
	}
	if j.exact {
		a.States, a.Transitions = res.States, res.Transitions
	}
	return a
}

// check compares a verification result with the known answer.
func (j job) check(res *esplang.VerifyResult) error {
	if res.Truncated {
		return fmt.Errorf("search truncated at %d states", res.States)
	}
	want, ok := reference.answer(j.Name)
	if !ok {
		return fmt.Errorf("no known answer")
	}
	if got := j.outcome(res); got != want {
		return fmt.Errorf("outcome %+v, known answer %+v", got, want)
	}
	return nil
}

// runTraced repeats the job with a progress sampler (for the frontier
// peak) and runtime counters read around the call.
func (j job) runTraced(l *layers) (int64, error) {
	o := j.opts
	var frontier int
	o.ProgressInterval = 10 * time.Millisecond
	o.Progress = func(p esplang.ProgressInfo) {
		if p.Frontier > frontier {
			frontier = p.Frontier
		}
	}
	g0 := readGC()
	t0 := time.Now()
	res, err := j.verify(o)
	d := time.Since(t0)
	g1 := readGC()
	if err != nil {
		return 0, err
	}
	v := &l.verify
	v.jobs++
	v.ns += int64(d)
	v.states += int64(res.States)
	v.transitions += int64(res.Transitions)
	v.memBytes += res.MemBytes
	if frontier > v.frontierPeak {
		v.frontierPeak = frontier
	}
	if p := res.POR; p != nil {
		v.ampleStates += p.AmpleStates
		v.fullStates += p.FullStates
		v.provisoFallbacks += p.ProvisoFallbacks
		v.deferred += p.DeferredTransitions
	}
	l.addGC(g1.sub(g0))
	return int64(res.Transitions), j.check(res)
}
