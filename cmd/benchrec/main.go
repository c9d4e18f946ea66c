// Command benchrec compares the working tree with a parent commit on the
// repository benchmark that BENCHMARK.json names, and records the result
// so that a performance claim is a committed number:
//
//	go run ./cmd/benchrec -parent HEAD -out BENCH_PR<n>.json
//
// Run it from the repository root on an idle machine. It clones the
// parent into a temporary directory and runs BENCHMARK.json's command
// there and in the working tree on every workload, ten pairs of runs of
// run_seconds each with tracing off. Both sides of pair i run seed i+1; the parent runs
// first in even pairs and the change in odd ones, so drift in machine
// speed falls on both.
//
// The output keeps every run's identity and result lines and, per
// workload and end-to-end metric, each side's median, quartiles and
// extremes, the pairs the change won and lost (ties count for neither)
// and a verdict (see judgeMetric). Runs whose workload_hash differs are
// not compared. benchrec exits 1 when a metric regressed or the change
// fails a larger share of its operations than the parent, and 2 on a
// usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json benchrec reads.
type spec struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // largest tolerated worsening, relative to the parent's median
}

// runner runs the benchmark command with args in dir and returns its
// standard output. Tests substitute a fake.
type runner func(dir string, args []string) ([]byte, error)

const (
	parentSide = "parent"
	changeSide = "change"
)

// Report is the layout of a BENCH_PR<n>.json file.
type Report struct {
	Parent     string     `json:"parent"` // the parent commit, resolved
	Command    []string   `json:"command"`
	RunSeconds float64    `json:"run_seconds"`
	Pairs      int        `json:"pairs"`
	Workloads  []Workload `json:"workloads"`
}

// Workload is the comparison on one workload.
type Workload struct {
	Name         string `json:"name"`
	WorkloadHash string `json:"workload_hash"`
	// Attempted and Failed count operations over all runs, by side.
	Attempted map[string]int `json:"attempted"`
	Failed    map[string]int `json:"failed"`
	Metrics   []Metric       `json:"metrics"`
	Samples   []Sample       `json:"samples"`
}

// Sample is one run, with the identity and result lines it printed.
type Sample struct {
	Pair     int             `json:"pair"`
	Side     string          `json:"side"`
	Identity json.RawMessage `json:"identity"`
	Result   json.RawMessage `json:"result"`
	res      result
}

// result is the part of the result line benchrec reads.
type result struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// Metric is one end-to-end metric compared across the pairs.
type Metric struct {
	metricSpec
	Parent Summary `json:"parent"`
	Change Summary `json:"change"`
	// WorseBy is how much worse the change's median is than the
	// parent's, relative to the parent's; negative when it is better.
	WorseBy float64 `json:"worse_by"`
	Wins    int     `json:"wins"`
	Losses  int     `json:"losses"`
	Verdict string  `json:"verdict"`
}

// Summary is one side's distribution over the pairs.
type Summary struct {
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
	IQR    float64 `json:"iqr"`
}

// compare runs pairs parent/change pairs of every workload, the parent
// in parentDir and the change in changeDir, and judges them.
func compare(sp spec, pairs int, run runner, parentDir, changeDir string) (*Report, error) {
	rep := &Report{Command: sp.Command, RunSeconds: sp.RunSeconds, Pairs: pairs}
	for _, w := range sp.Workloads {
		rep.Workloads = append(rep.Workloads, Workload{Name: w.Name, Attempted: map[string]int{}, Failed: map[string]int{}})
	}
	dirs := map[string]string{parentSide: parentDir, changeSide: changeDir}
	seconds := strconv.FormatFloat(sp.RunSeconds, 'g', -1, 64)
	for pair := 0; pair < pairs; pair++ {
		order := []string{parentSide, changeSide}
		if pair%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		seed := strconv.Itoa(pair + 1)
		for i := range rep.Workloads {
			w := &rep.Workloads[i]
			for _, side := range order {
				out, err := run(dirs[side], []string{"--workload", w.Name, "--seed", seed, "--seconds", seconds, "--trace", "0"})
				if err == nil {
					err = w.add(Sample{Pair: pair, Side: side}, out)
				}
				if err != nil {
					return nil, fmt.Errorf("%s %s seed %s: %w", side, w.Name, seed, err)
				}
				fmt.Fprintf(os.Stderr, "benchrec: pair %d/%d %s %s done\n", pair+1, pairs, w.Name, side)
			}
		}
	}
	for i := range rep.Workloads {
		if err := rep.Workloads[i].judge(sp.EndToEnd); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// add appends the run that printed out, whose last two lines are its
// identity and its result, refusing a run of different work.
func (w *Workload) add(s Sample, out []byte) error {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 {
		return fmt.Errorf("want an identity and a result line, got %q", out)
	}
	s.Identity, s.Result = json.RawMessage(lines[len(lines)-2]), json.RawMessage(lines[len(lines)-1])
	var id struct {
		Workload     string `json:"workload"`
		WorkloadHash string `json:"workload_hash"`
	}
	if err := json.Unmarshal(s.Identity, &id); err != nil {
		return fmt.Errorf("identity line: %w", err)
	}
	if err := json.Unmarshal(s.Result, &s.res); err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	switch {
	case id.Workload != w.Name:
		return fmt.Errorf("the run reports workload %q", id.Workload)
	case w.WorkloadHash == "":
		w.WorkloadHash = id.WorkloadHash
	case id.WorkloadHash != w.WorkloadHash:
		return fmt.Errorf("workload_hash %s differs from the earlier runs' %s: the sides measure different work",
			id.WorkloadHash, w.WorkloadHash)
	}
	w.Attempted[s.Side] += s.res.Attempted
	w.Failed[s.Side] += s.res.Failed
	w.Samples = append(w.Samples, s)
	return nil
}

// judge compares the two sides on every end-to-end metric.
func (w *Workload) judge(specs []metricSpec) error {
	for _, ms := range specs {
		var p, c []float64
		for _, s := range w.Samples {
			v, ok := s.res.Metrics[ms.Name]
			if !ok {
				return fmt.Errorf("%s %s pair %d: no metric %s", w.Name, s.Side, s.Pair+1, ms.Name)
			}
			if s.Side == parentSide {
				p = append(p, v.Value)
			} else {
				c = append(c, v.Value)
			}
		}
		m, err := judgeMetric(ms, p, c, w.failsMore())
		if err != nil {
			return fmt.Errorf("%s %s: %w", w.Name, ms.Name, err)
		}
		w.Metrics = append(w.Metrics, m)
	}
	return nil
}

// judgeMetric compares the parent's values p and the change's values c
// of one metric, where p[i] and c[i] are pair i; failsMore says the
// change failed a larger share of its operations. Its verdict is
//
//   - shown: at least ten pairs ran, the change won at least 9 pairs in
//     10, its median is better than the parent's by more than the
//     parent's interquartile range, and failsMore is false;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: either side's interquartile range, relative to its
//     median, is wider than the bound, and not every change run is
//     better than every parent run;
//   - within: none of these.
func judgeMetric(ms metricSpec, p, c []float64, failsMore bool) (Metric, error) {
	if len(p) != len(c) || len(p) == 0 {
		return Metric{}, fmt.Errorf("%d parent and %d change values", len(p), len(c))
	}
	sign := map[string]float64{"higher": 1, "lower": -1}[ms.Better]
	if sign == 0 {
		return Metric{}, fmt.Errorf("better = %q, want higher or lower", ms.Better)
	}
	m := Metric{metricSpec: ms, Parent: summarize(p), Change: summarize(c)}
	for i := range p {
		if d := sign * (c[i] - p[i]); d > 0 {
			m.Wins++
		} else if d < 0 {
			m.Losses++
		}
	}
	m.WorseBy = relative(sign*(m.Parent.Median-m.Change.Median), m.Parent.Median)
	spread := math.Max(relative(m.Parent.IQR, m.Parent.Median), relative(m.Change.IQR, m.Change.Median))
	// The change's worst run against the parent's best.
	worst, best := m.Change.Min, m.Parent.Max
	if sign < 0 {
		worst, best = m.Change.Max, m.Parent.Min
	}
	switch {
	case !failsMore && len(p) >= 10 && 10*m.Wins >= 9*len(p) && sign*(m.Change.Median-m.Parent.Median) > m.Parent.IQR:
		m.Verdict = "shown"
	case m.WorseBy > ms.Bound:
		m.Verdict = "regressed"
	case spread > ms.Bound && sign*(worst-best) <= 0:
		m.Verdict = "unresolved"
	default:
		m.Verdict = "within"
	}
	return m, nil
}

// relative is d/|base|, taking a zero base as a change of the whole.
func relative(d, base float64) float64 {
	switch {
	case base != 0:
		return d / math.Abs(base)
	case d != 0:
		return math.Copysign(1, d)
	}
	return 0
}

// summarize interpolates the quartiles of xs between closest ranks, as
// espbench does.
func summarize(xs []float64) Summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(f float64) float64 {
		pos := f * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	sum := Summary{Min: s[0], Q1: q(0.25), Median: q(0.5), Q3: q(0.75), Max: s[len(s)-1]}
	sum.IQR = sum.Q3 - sum.Q1
	return sum
}

// failed reports, to standard error, what fails the comparison:
// regressed metrics, and workloads where the change fails a larger share
// of its operations.
func (r *Report) failed() bool {
	failed := false
	for _, w := range r.Workloads {
		for _, m := range w.Metrics {
			if m.Verdict == "regressed" {
				fmt.Fprintf(os.Stderr, "benchrec: %s %s regressed by %.1f%% (bound %.0f%%)\n", w.Name, m.Name, 100*m.WorseBy, 100*m.Bound)
				failed = true
			}
		}
		if w.failsMore() {
			pf, pa, cf, ca := w.Failed[parentSide], w.Attempted[parentSide], w.Failed[changeSide], w.Attempted[changeSide]
			fmt.Fprintf(os.Stderr, "benchrec: %s: the change failed %d of %d operations, the parent %d of %d\n", w.Name, cf, ca, pf, pa)
			failed = true
		}
	}
	return failed
}

// failsMore reports whether the change failed a larger share of its
// operations than the parent.
func (w *Workload) failsMore() bool {
	return w.Failed[changeSide]*w.Attempted[parentSide] > w.Failed[parentSide]*w.Attempted[changeSide]
}

// checkout resolves ref and checks it out into a new temporary clone of
// the repository. A clone, unlike a git worktree, leaves nothing behind
// in the repository when benchrec is killed.
func checkout(ref string) (dir, commit string, err error) {
	out, err := exec.Command("git", "rev-parse", "--verify", ref+"^{commit}").Output()
	if err != nil {
		return "", "", fmt.Errorf("resolve %s: %w", ref, err)
	}
	commit = strings.TrimSpace(string(out))
	if dir, err = os.MkdirTemp("", "benchrec-parent-"); err != nil {
		return "", "", err
	}
	for _, args := range [][]string{
		{"clone", "--quiet", "--no-checkout", ".", dir},
		{"-C", dir, "checkout", "--quiet", "--detach", commit},
	} {
		cmd := exec.Command("git", args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			os.RemoveAll(dir)
			return "", "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
		}
	}
	return dir, commit, nil
}

func main() {
	parent := flag.String("parent", "", "git ref of the commit to compare the working tree with (required)")
	out := flag.String("out", "", "output file, BENCH_PR<n>.json (required)")
	flag.Parse()
	if *parent == "" || *out == "" || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: benchrec -parent <ref> -out BENCH_PR<n>.json  (run from the repository root)")
		flag.PrintDefaults()
		os.Exit(2)
	}
	var sp spec
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &sp)
	}
	if err == nil && (len(sp.Command) == 0 || sp.RunSeconds <= 0) {
		err = fmt.Errorf("want a command and a positive run_seconds")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrec: BENCHMARK.json:", err)
		os.Exit(1)
	}
	dir, commit, err := checkout(*parent)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrec:", err)
		os.Exit(1)
	}
	exe := func(dir string, args []string) ([]byte, error) {
		cmd := exec.Command(sp.Command[0], append(sp.Command[1:len(sp.Command):len(sp.Command)], args...)...)
		cmd.Dir = dir
		cmd.Stderr = os.Stderr
		return cmd.Output()
	}
	const pairs = 10 // the fewest that can show a gain (see judgeMetric)
	status := record(sp, pairs, exe, dir, commit, *out)
	os.RemoveAll(dir)
	os.Exit(status)
}

// record compares the parent checked out in parentDir with the working
// tree, writes the report to out, prints a summary and returns the exit
// status.
func record(sp spec, pairs int, run runner, parentDir, commit, out string) int {
	rep, err := compare(sp, pairs, run, parentDir, ".")
	if err == nil {
		rep.Parent = commit
		var buf []byte
		if buf, err = json.MarshalIndent(rep, "", "  "); err == nil {
			err = os.WriteFile(out, append(buf, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrec:", err)
		return 1
	}
	for _, w := range rep.Workloads {
		for _, m := range w.Metrics {
			fmt.Printf("%-12s %-13s parent %-10.4g change %-10.4g worse by %+6.1f%%  wins %2d/%d  %s\n",
				w.Name, m.Name, m.Parent.Median, m.Change.Median, 100*m.WorseBy, m.Wins, pairs, m.Verdict)
		}
	}
	fmt.Printf("wrote %s\n", out)
	if rep.failed() {
		return 1
	}
	return 0
}
