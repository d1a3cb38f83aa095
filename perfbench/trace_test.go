package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"ffccd/internal/obsv"
)

// cannedTop is `go tool pprof -top -unit=ms` output of a micro-grid
// profile, trimmed to a few rows.
const cannedTop = `File: perfbench
Build ID: a75d15da03896ade93cae685effc7062bbcc26ce
Type: cpu
Time: 2026-10-17 07:18:19 UTC
Duration: 6.16s, Total samples = 10430ms (169.22%)
Showing nodes accounting for 4000ms, 38.35% of 10430ms total
      flat  flat%   sum%        cum   cum%
    1600ms 15.34% 15.34%     2860ms 27.42%  ffccd/internal/pmem.(*Device).Load
     830ms  7.96% 23.30%      830ms  7.96%  ffccd/internal/pmem.(*Device).resident
     610ms  5.85% 29.15%      610ms  5.85%  runtime.memmove
     460ms  4.41% 33.56%     1050ms 10.07%  ffccd/internal/pmem.(*Device).Sfence
     370ms  3.55% 37.10%      390ms  3.74%  ffccd/internal/sim.(*setAssoc).lookup
      20ms  0.19% 37.29%       20ms  0.19%  ffccd/internal/alloc.(*Heap).setRange (inline)
      10ms 0.096% 37.39%       10ms 0.096%  slices.pdqsortCmpFunc[go.shape.struct { ffccd/internal/x.a int }]
     100ms  0.96% 38.35%      100ms  0.96%  ffccd/internal/workpool.ForEach.func1
         0     0% 38.35%     3000ms 28.76%  ffccd/internal/experiments.RunSpecsForked
`

// cannedFocusEmpty is the listing pprof prints when a focus matches no
// samples.
const cannedFocusEmpty = `Focus expression matched no samples
File: perfbench
Type: cpu
Duration: 201.33ms, Total samples = 80ms (39.74%)
Active filters:
   focus=nomatch
Showing nodes accounting for 0, 0% of 80ms total
      flat  flat%   sum%        cum   cum%
`

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestParseTop(t *testing.T) {
	top, err := parseTop(cannedTop)
	if err != nil {
		t.Fatal(err)
	}
	if !near(top.total, 10.43) || !near(top.shown, 4.0) {
		t.Fatalf("total %v shown %v, want 10.43 and 4", top.total, top.shown)
	}
	if got := top.flat["ffccd/internal/alloc.(*Heap).setRange"]; !near(got, 0.02) {
		t.Errorf("inline row: flat %v, want 0.02", got)
	}
	if got := top.flat["ffccd/internal/experiments.RunSpecsForked"]; got != 0 {
		t.Errorf("zero-flat row: flat %v, want 0", got)
	}
	cases := map[string]float64{
		"ffccd/internal/pmem":     (1.6 + 0.83 + 0.46) / 10.43,
		"ffccd/internal/sim":      0.37 / 10.43,
		"ffccd/internal/workpool": 0.1 / 10.43,
		"runtime":                 0.61 / 10.43,
		"slices":                  0.01 / 10.43,
		"ffccd/internal/kv":       0,
	}
	for pkg, want := range cases {
		if got := top.selfShare(pkg); !near(got, want) {
			t.Errorf("selfShare(%s) = %v, want %v", pkg, got, want)
		}
	}
}

func TestParseTopFocusMatchedNothing(t *testing.T) {
	top, err := parseTop(cannedFocusEmpty)
	if err != nil {
		t.Fatal(err)
	}
	if top.shown != 0 || !near(top.total, 0.08) {
		t.Fatalf("shown %v total %v, want 0 and 0.08", top.shown, top.total)
	}
}

func TestParseTopRejectsOtherOutput(t *testing.T) {
	if _, err := parseTop("open cpu.pprof: no such file or directory\n"); err == nil {
		t.Fatal("want an error for output without a listing header")
	}
}

func TestParseDuration(t *testing.T) {
	for in, want := range map[string]float64{
		"0": 0, "80ms": 0.08, "1.25s": 1.25, "1.5mins": 90, "250us": 250e-6, "7ns": 7e-9,
	} {
		got, err := parseDuration(in)
		if err != nil || !near(got, want) {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseDuration("3 parsecs"); err == nil {
		t.Error("want an error for an unknown unit")
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ffccd/internal/pmem.(*Device).Load":    "ffccd/internal/pmem",
		"ffccd/internal/workpool.ForEach.func1": "ffccd/internal/workpool",
		"runtime.memclrNoHeapPointers":          "runtime",
		"sync.(*Mutex).lockSlow":                "sync",
		"slices.pdqsortCmpFunc[go.shape.int]":   "slices",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestComparableRefusesDifferentHosts(t *testing.T) {
	a := record{Workload: "serve", Host: hostContext{NProc: 2, PoolWidth: 2}}
	b := a
	if err := comparable(a, b); err != nil {
		t.Fatalf("same host: %v", err)
	}
	b.Host.NProc = 4
	if err := comparable(a, b); err == nil {
		t.Error("want a refusal for a different nproc")
	}
	b = a
	b.Host.PoolWidth = 1
	if err := comparable(a, b); err == nil {
		t.Error("want a refusal for a different pool width")
	}
}

func TestMixSeedIsPositiveAndSpread(t *testing.T) {
	seen := map[int64]bool{}
	for s := int64(-2); s < 64; s++ {
		v := mixSeed(s, 1)
		if v <= 0 || seen[v] {
			t.Fatalf("mixSeed(%d) = %d: not positive or repeated", s, v)
		}
		seen[v] = true
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric and workload names the
// benchmark emits in step with BENCHMARK.json at the repository root.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, code []layerMetric, want []struct{ Name, Unit string }) {
		if len(code) != len(want) {
			t.Fatalf("%s: benchmark emits %d metrics, BENCHMARK.json lists %d", kind, len(code), len(want))
		}
		for i, m := range code {
			if m.name != want[i].Name || m.unit != want[i].Unit {
				t.Errorf("%s %d: benchmark emits %s [%s], BENCHMARK.json lists %s [%s]", kind, i, m.name, m.unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the benchmark", i, spec.Workloads[i].Name, w.name)
		}
	}
}

func TestObsTotalsFoldsLikeTheCollector(t *testing.T) {
	snap := func(ctr uint64, obs ...uint64) obsv.Snapshot {
		r := obsv.NewRegistry()
		r.Counter("moves").Add(ctr)
		for _, v := range obs {
			r.Hist("wpq").Observe(v)
		}
		return r.Snapshot()
	}
	tot := newObsTotals()
	tot.add(snap(3, 10, 20))
	tot.add(snap(4, 60))
	if got := tot.flat["counters.moves"]; got != 7 {
		t.Errorf("counters add: got %v, want 7", got)
	}
	if got := tot.flat["wpq.count"]; got != 3 {
		t.Errorf("histogram counts add: got %v, want 3", got)
	}
	if got := tot.flat["wpq.max"]; got != 60 {
		t.Errorf("maxima keep the largest: got %v, want 60", got)
	}
	if got := tot.mean("wpq"); !near(got, 30) {
		t.Errorf("exact mean over both snapshots: got %v, want 30", got)
	}
}

func TestObsTotalsSkipsForkPrefixes(t *testing.T) {
	bundle := func(moves uint64) *obsv.Obs {
		o := obsv.New(0)
		o.Metrics.Counter("moves").Add(moves)
		return o
	}
	tot := newObsTotals()
	tot.addRuns(
		[]string{"ll/FFCCD/t1/seed3/prefix", "ll/FFCCD/t1/seed3/fork", "ll/none/t1/seed3"},
		[]*obsv.Obs{bundle(100), bundle(130), bundle(120)},
	)
	if got := tot.flat["counters.moves"]; got != 250 {
		t.Errorf("per-run sums: got %v, want 250 (the prefix's 100 is already in its fork)", got)
	}
}

func TestObsTotalsFoldsEachCrashBundleOnce(t *testing.T) {
	tot := newObsTotals()
	factory := tot.crashFactory()
	nested, single := factory(), factory()
	factory() // a trial that never crashes
	nested.Metrics.Counter("moves").Add(5)
	nested.OnCrash(nested) // first crash
	nested.Metrics.Counter("moves").Add(2)
	nested.OnCrash(nested) // crash during recovery: cumulative 7
	single.Metrics.Counter("moves").Add(4)
	single.OnCrash(single)
	tot.foldCrashReadings()
	if got := tot.flat["counters.moves"]; got != 11 {
		t.Errorf("last reading of each bundle: got %v, want 11", got)
	}
	if tot.crashes != 3 {
		t.Errorf("crashes: got %d, want 3 (every power failure counts)", tot.crashes)
	}
}
