package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var testSpec = spec{
	Command:    []string{"bash", "espbench/run.sh"},
	RunSeconds: 35,
	Workloads: []struct {
		Name string `json:"name"`
	}{{"fig5"}, {"verify-full"}},
	EndToEnd: []metricSpec{
		{Name: "msgs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
		{Name: "verdict_s", Unit: "s", Better: "lower", Bound: 0.25},
	},
}

const parentDir = "parent-checkout"

// fakeRun stands in for the benchmark: it records every call and prints
// an identity and a result line built from its hooks.
type fakeRun struct {
	calls []call
	// value gives the metric of one run; pair is seed-1.
	value func(side, metric string, pair int) float64
	// hash and failed default to "h0" and 0.
	hash   func(side string) string
	failed func(side string) int
}

type call struct {
	side, workload string
	seed           int64
	args           []string
}

func (f *fakeRun) run(dir string, args []string) ([]byte, error) {
	side := changeSide
	if dir == parentDir {
		side = parentSide
	}
	flags := map[string]string{}
	for i := 0; i+1 < len(args); i += 2 {
		flags[args[i]] = args[i+1]
	}
	seed, err := strconv.ParseInt(flags["--seed"], 10, 64)
	if err != nil {
		return nil, err
	}
	f.calls = append(f.calls, call{side, flags["--workload"], seed, args})
	hash, failed := "h0", 0
	if f.hash != nil {
		hash = f.hash(side)
	}
	if f.failed != nil {
		failed = f.failed(side)
	}
	metrics := map[string]map[string]float64{}
	for _, m := range testSpec.EndToEnd {
		metrics[m.Name] = map[string]float64{"value": f.value(side, m.Name, int(seed-1))}
	}
	id, _ := json.Marshal(map[string]any{"workload": flags["--workload"], "seed": seed, "workload_hash": hash})
	res, _ := json.Marshal(map[string]any{"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": metrics})
	return []byte("building\n" + string(id) + "\n" + string(res) + "\n"), nil
}

// noisy is a parent-side value near base that varies by up to ±2% from
// pair to pair.
func noisy(base float64, pair int) float64 {
	return base * (1 + 0.01*float64((pair*7)%5-2))
}

// scaled returns a value hook where the change's runs are the parent's
// times factor(metric, pair).
func scaled(factor func(metric string, pair int) float64) func(string, string, int) float64 {
	return func(side, metric string, pair int) float64 {
		v := noisy(100, pair)
		if side == changeSide {
			v *= factor(metric, pair)
		}
		return v
	}
}

func same(string, int) float64 { return 1 }

// recordFake runs record over the fake and returns the exit status and
// the report it wrote.
func recordFake(t *testing.T, f *fakeRun, pairs int) (int, Report) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "BENCH.json")
	status := record(testSpec, pairs, f.run, parentDir, "abc123", out)
	var rep Report
	if raw, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
	}
	return status, rep
}

func metricOf(t *testing.T, rep Report, workload, metric string) Metric {
	t.Helper()
	for _, w := range rep.Workloads {
		for _, m := range w.Metrics {
			if w.Name == workload && m.Name == metric {
				return m
			}
		}
	}
	t.Fatalf("no %s %s in the report", workload, metric)
	return Metric{}
}

// TestPairOrderAlternates: the side that runs first alternates from pair
// to pair, both sides of a pair run every workload with the same seed,
// and the run length and tracing come from the spec.
func TestPairOrderAlternates(t *testing.T) {
	f := &fakeRun{value: scaled(same)}
	status, rep := recordFake(t, f, 4)
	if status != 0 {
		t.Fatalf("status %d for identical sides", status)
	}
	if len(f.calls) != 4*2*2 {
		t.Fatalf("%d runs, want 16", len(f.calls))
	}
	for i := 0; i < len(f.calls); i += 2 {
		a, b := f.calls[i], f.calls[i+1]
		pair := i / 4
		first := parentSide
		if pair%2 == 1 {
			first = changeSide
		}
		if a.side != first || b.side == a.side {
			t.Errorf("pair %d ran %s then %s, want %s first", pair, a.side, b.side, first)
		}
		if a.seed != int64(pair+1) || b.seed != a.seed || a.workload != b.workload {
			t.Errorf("pair %d: %s seed %d and %s seed %d", pair, a.workload, a.seed, b.workload, b.seed)
		}
		if got := strings.Join(a.args, " "); !strings.Contains(got, "--seconds 35 --trace 0") {
			t.Errorf("args %q", got)
		}
	}
	if rep.Parent != "abc123" || len(rep.Workloads) != 2 || len(rep.Workloads[0].Samples) != 8 {
		t.Fatalf("report %+v", rep)
	}
	for _, s := range rep.Workloads[0].Samples {
		var id struct {
			WorkloadHash string `json:"workload_hash"`
		}
		if err := json.Unmarshal(s.Identity, &id); err != nil || id.WorkloadHash != "h0" {
			t.Errorf("sample %d %s lost its identity line: %s", s.Pair, s.Side, s.Identity)
		}
	}
	if m := metricOf(t, rep, "fig5", "msgs_per_s"); m.Verdict != "within" || m.Wins != 0 || m.Losses != 0 {
		t.Errorf("identical sides judged %+v", m)
	}
}

// TestWorkloadHashMismatch: runs of different work are not compared.
func TestWorkloadHashMismatch(t *testing.T) {
	f := &fakeRun{value: scaled(same), hash: func(side string) string {
		if side == changeSide {
			return "h1"
		}
		return "h0"
	}}
	if _, err := compare(testSpec, 2, f.run, parentDir, "."); err == nil || !strings.Contains(err.Error(), "workload_hash") {
		t.Errorf("compare = %v, want a workload_hash error", err)
	}
	if status, _ := recordFake(t, f, 2); status == 0 {
		t.Error("record exited 0 on a workload_hash mismatch")
	}
}

// TestRegressedExitsNonZero: a throughput median 30% below the parent's,
// with the bound at 25%, is a regression.
func TestRegressedExitsNonZero(t *testing.T) {
	f := &fakeRun{value: scaled(func(metric string, _ int) float64 {
		if metric == "msgs_per_s" {
			return 0.7
		}
		return 1
	})}
	status, rep := recordFake(t, f, 10)
	if status == 0 {
		t.Error("record exited 0 on a regression")
	}
	if m := metricOf(t, rep, "fig5", "msgs_per_s"); m.Verdict != "regressed" || m.Losses != 10 {
		t.Errorf("msgs_per_s judged %+v, want regressed with 10 losses", m)
	}
	if m := metricOf(t, rep, "fig5", "verdict_s"); m.Verdict != "within" {
		t.Errorf("unchanged verdict_s judged %s", m.Verdict)
	}
}

// TestFailedShareExitsNonZero: the change failing more of its operations
// fails the comparison, and shows no gain, even when every metric holds
// and one improves clearly.
func TestFailedShareExitsNonZero(t *testing.T) {
	f := &fakeRun{value: scaled(func(metric string, _ int) float64 {
		if metric == "msgs_per_s" {
			return 1.2
		}
		return 1
	}), failed: func(side string) int {
		if side == changeSide {
			return 1
		}
		return 0
	}}
	status, rep := recordFake(t, f, 10)
	if status == 0 {
		t.Error("record exited 0 with a higher failed share")
	}
	if w := rep.Workloads[0]; w.Failed[changeSide] != 10 || w.Failed[parentSide] != 0 || w.Attempted[parentSide] != 1000 {
		t.Errorf("failed %v of attempted %v", w.Failed, w.Attempted)
	}
	if m := metricOf(t, rep, "fig5", "msgs_per_s"); m.Wins != 10 || m.Verdict == "shown" {
		t.Errorf("msgs_per_s with a higher failed share judged %+v, want 10 wins and not shown", m)
	}
}

// TestShownNeedsNineInTen: a 10% gain, beyond the parent's spread, is
// shown when the change wins 9 pairs of 10 and not when it wins 8.
func TestShownNeedsNineInTen(t *testing.T) {
	for _, tc := range []struct {
		lost int
		want string
	}{{1, "shown"}, {2, "within"}} {
		f := &fakeRun{value: scaled(func(metric string, pair int) float64 {
			if metric != "msgs_per_s" {
				return 1
			}
			if pair < tc.lost {
				return 0.99
			}
			return 1.1
		})}
		status, rep := recordFake(t, f, 10)
		m := metricOf(t, rep, "fig5", "msgs_per_s")
		if status != 0 || m.Verdict != tc.want || m.Wins != 10-tc.lost {
			t.Errorf("%d pairs lost: status %d, verdict %s, wins %d; want %s", tc.lost, status, m.Verdict, m.Wins, tc.want)
		}
		if m.Change.Median-m.Parent.Median <= m.Parent.IQR {
			t.Errorf("medians %g and %g within the parent's IQR %g", m.Change.Median, m.Parent.Median, m.Parent.IQR)
		}
	}
}

// TestShownNeedsTenPairs: winning every pair of fewer than ten shows
// nothing.
func TestShownNeedsTenPairs(t *testing.T) {
	for _, tc := range []struct {
		pairs int
		want  string
	}{{2, "within"}, {9, "within"}, {10, "shown"}} {
		p, c := make([]float64, tc.pairs), make([]float64, tc.pairs)
		for i := range p {
			p[i], c[i] = noisy(100, i), noisy(150, i)
		}
		m, err := judgeMetric(testSpec.EndToEnd[0], p, c, false)
		if err != nil || m.Wins != tc.pairs || m.Verdict != tc.want {
			t.Errorf("%d pairs all won: %+v, %v; want %s", tc.pairs, m, err, tc.want)
		}
	}
}

// TestLowerIsBetter: for a time, a smaller value wins and a larger one
// regresses.
func TestLowerIsBetter(t *testing.T) {
	for _, tc := range []struct {
		factor float64
		want   string
		status int
	}{{0.8, "shown", 0}, {1.3, "regressed", 1}} {
		f := &fakeRun{value: scaled(func(metric string, _ int) float64 {
			if metric == "verdict_s" {
				return tc.factor
			}
			return 1
		})}
		status, rep := recordFake(t, f, 10)
		m := metricOf(t, rep, "verify-full", "verdict_s")
		if status != tc.status || m.Verdict != tc.want {
			t.Errorf("verdict_s x%g: status %d, verdict %s; want %d, %s", tc.factor, status, m.Verdict, tc.status, tc.want)
		}
		if tc.factor < 1 && (m.Wins != 10 || m.WorseBy >= 0) {
			t.Errorf("verdict_s x%g: wins %d, worse by %g", tc.factor, m.Wins, m.WorseBy)
		}
	}
}

// TestUnresolvedSpread: a metric whose runs spread wider than its bound
// is unresolved, not within, unless every change run beats every parent
// run.
func TestUnresolvedSpread(t *testing.T) {
	// The parent's quartiles are 100 and 175: a spread of 75%.
	parent := []float64{100, 200, 100, 100, 200, 100, 100, 200, 100, 100}
	for _, tc := range []struct {
		change float64
		want   string
	}{{101, "unresolved"}, {99, "within"}} {
		change := make([]float64, len(parent))
		for i := range change {
			change[i] = tc.change
		}
		m, err := judgeMetric(testSpec.EndToEnd[1], parent, change, false)
		if err != nil || m.Verdict != tc.want {
			t.Errorf("change at %g: %+v, %v; want %s", tc.change, m, err, tc.want)
		}
	}
}
