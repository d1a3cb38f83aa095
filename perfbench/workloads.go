package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"ffccd/internal/core"
	"ffccd/internal/experiments"
	"ffccd/internal/faultinject"
	"ffccd/internal/obsv"
)

// Workload sizes. Each measured iteration runs one instance. A micro-grid or
// serve iteration takes 4-6 host seconds on a 2-core host, so a run holds
// several and reports their median; a crash-sweep iteration takes about 20.
const (
	gridScale  = 0.001  // micro-grid: 5k inserts per store
	smokeScale = 0.0002 // micro-grid set-up instance

	serveScale = 0.001 // serve: 20k keys, 120k requests per scheme
	// serveRate is the offered load in requests per simulated second, fixed
	// so that a program change cannot move it. It is the median of the
	// rates the serving experiment calibrates itself to (60% utilization of
	// the measured service rate) at this scale for seeds 1-10, which range
	// 3.74e7-4.27e7: a utilization of 0.56-0.64 (METRICS.md).
	serveRate       = 3.97e7
	serveSmokeScale = 0.0002

	crashMaxSites  = 6 // crash-sweep: first-level sites per setting
	crashMaxNested = 2 // crash-sweep: crash-during-recovery schedules per setting
	crashTimeout   = 60 * time.Second
)

// serveSchemes is the serve workload's scheme axis. Mesh is left out: its
// row is bit-identical to the no-defrag baseline.
var serveSchemes = []string{"none", "ffccd", "stw"}

// gridSchemes is the Fig. 14 scheme axis (after the no-defrag baseline).
var gridSchemes = []core.Scheme{
	core.SchemeEspresso, core.SchemeSFCCD, core.SchemeFFCCD, core.SchemeFFCCDCheckLookup,
}

// iterResult is what one measured iteration of a workload produced.
type iterResult struct {
	attempted, failed int
	// simCycles is the simulated cycles the iteration's runs report
	// (0 where the entry point exposes none).
	simCycles uint64
	// sim holds the exact simulated figures (sim_* metrics) and layer counts
	// the entry point returns.
	sim map[string]float64
	// digest folds every simulated output; it must repeat exactly.
	digest uint64
	// spans are the benchmark's own timings around each call it made into
	// the program: one per iteration on micro-grid and serve, one per
	// setting on crash-sweep.
	spans []span
}

// workload is one benchmark workload (BENCHMARK.json and METRICS.md say why
// each was chosen). setup runs the workload's smallest instance; run
// executes one measured iteration. Both generate their inputs from the seed.
type workload struct {
	name  string
	setup func(seed int64) error
	// run takes, in traced iterations, a factory for the crash trials'
	// observability bundles (nil otherwise).
	run func(seed int64, trialObs func() *obsv.Obs) (iterResult, error)
}

var workloads = []workload{
	{
		name:  "micro-grid",
		setup: gridSetup,
		run:   gridRun,
	},
	{
		name:  "serve",
		setup: serveSetup,
		run:   serveRun,
	},
	{
		name:  "crash-sweep",
		setup: crashSetup,
		run:   crashRun,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// mixSeed maps the benchmark seed to a positive, non-zero workload seed
// (SplitMix64 finalizer), so that small neighbouring seeds give unrelated
// inputs and seed 0 does not select an entry point's default.
func mixSeed(seed int64, salt uint64) int64 {
	z := uint64(seed) + salt*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>33) + 1
}

// digest is an FNV-1a fold over simulated outputs.
type digest struct{ buf []byte }

func (d *digest) u64(vs ...uint64) {
	for _, v := range vs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, v)
	}
}

func (d *digest) f64(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

func (d *digest) str(s string) { d.buf = append(append(d.buf, s...), 0) }

func (d *digest) sum() uint64 {
	h := fnv.New64a()
	h.Write(d.buf)
	return h.Sum64()
}

// --- micro-grid -----------------------------------------------------------

// gridSpecs builds the Fig. 14 grid: every microbenchmark store under the
// no-defrag baseline and the four schemes at Normal trigger/target, 4 KB
// pages, single-threaded.
func gridSpecs(seed int64, scale float64, stores []string) []experiments.Spec {
	var specs []experiments.Spec
	for _, store := range stores {
		base := experiments.Spec{
			Store: store, Threads: 1, Scheme: core.SchemeNone,
			Scale: scale, PageShift: 12, Seed: mixSeed(seed, 1),
		}
		specs = append(specs, base)
		for _, scheme := range gridSchemes {
			s := base
			s.Scheme = scheme
			s.Trigger, s.Target = core.NormalParams()
			specs = append(specs, s)
		}
	}
	return specs
}

func gridSetup(seed int64) error {
	specs := gridSpecs(seed, smokeScale, experiments.Micros[:1])
	_, err := experiments.RunSpecsForked(specs)
	return err
}

func gridRun(seed int64, _ func() *obsv.Obs) (iterResult, error) {
	specs := gridSpecs(seed, gridScale, experiments.Micros)
	sp := startSpan("experiments.RunSpecsForked")
	outs, err := experiments.RunSpecsForked(specs)
	sp = sp.end()
	if err != nil {
		return iterResult{}, fmt.Errorf("micro-grid: %w", err)
	}
	res := iterResult{attempted: len(specs), spans: []span{sp}, sim: map[string]float64{}}
	var d digest
	var norm, frag, extraWrites float64
	var moved uint64
	stride := 1 + len(gridSchemes)
	for i, o := range outs {
		if o.Spec != specs[i] {
			return iterResult{}, fmt.Errorf("micro-grid: outcome %d is for %+v, want %+v", i, o.Spec, specs[i])
		}
		if o.TotalOps <= 0 {
			return iterResult{}, fmt.Errorf("micro-grid: %s/%s ran no operations", o.Spec.Store, o.Spec.Scheme)
		}
		res.simCycles += o.TotalCycles()
		d.str(o.Spec.Store)
		d.str(o.Spec.Scheme.String())
		d.u64(o.Cycles[:]...)
		d.u64(o.TotalCycles(), uint64(o.TotalOps))
		d.f64(o.AvgFootprintMB, o.AvgLiveMB)
		d.u64(o.Engine.Cycles, o.Engine.FramesReleased, o.Engine.ObjectsMoved, o.Engine.BarrierMoves, o.Engine.LeaksReclaimed)
		e := o.Device
		d.u64(e.Loads, e.Stores, e.CacheHits, e.CacheMisses, e.Evictions, e.MediaWrites, e.MediaReads, e.Clwbs, e.Sfences, e.RelocateOps, e.PendingReach)

		if o.Spec.Scheme != core.SchemeFFCCDCheckLookup {
			continue
		}
		base := outs[i-i%stride]
		if base.Spec.Scheme != core.SchemeNone || base.AppCycles() == 0 {
			return iterResult{}, fmt.Errorf("micro-grid: no baseline for %s", o.Spec.Store)
		}
		norm += float64(o.TotalCycles()) / float64(base.AppCycles())
		if den := base.AvgFootprintMB - base.AvgLiveMB; den > 0 {
			frag += (base.AvgFootprintMB - o.AvgFootprintMB) / den * 100
		}
		extraWrites += float64(o.Device.MediaWrites) - float64(base.Device.MediaWrites)
		moved += o.Engine.ObjectsMoved
	}
	n := float64(len(outs) / stride)
	res.sim["sim_norm_time"] = norm / n
	res.sim["sim_frag_reduction_pct"] = frag / n
	if moved > 0 {
		res.sim["sim_writes_per_moved"] = extraWrites / float64(moved)
	}
	res.sim["sim_cycles_total"] = float64(res.simCycles)
	d.f64(res.sim["sim_norm_time"], res.sim["sim_frag_reduction_pct"], res.sim["sim_writes_per_moved"])
	res.digest = d.sum()
	return res, nil
}

// --- serve ----------------------------------------------------------------

func serveOptions(seed int64, scale float64, schemes []string) experiments.ServingOptions {
	return experiments.ServingOptions{
		Scale:      scale,
		RatePerSec: serveRate,
		Seed:       mixSeed(seed, 2),
		Schemes:    schemes,
		Shards:     1,
	}
}

func serveSetup(seed int64) error {
	_, err := experiments.Serving(serveOptions(seed, serveSmokeScale, []string{"ffccd"}))
	return err
}

// longestSTW is the longest stop-the-world interval in a serving series.
func longestSTW(ts *obsv.TimeSeries) uint64 {
	var max uint64
	for _, iv := range ts.Intervals() {
		if iv.Kind == obsv.IntervalSTW && iv.End-iv.Start > max {
			max = iv.End - iv.Start
		}
	}
	return max
}

// backlogGrowth is the mean queue wait per request in the last quarter of
// the windows minus that of the first quarter, in units of the mean
// application cycles per request. Near 0 when the queue is stable.
func backlogGrowth(v experiments.ServingVariant) float64 {
	ws := v.Series.Windows()
	q := len(ws) / 4
	if q == 0 || v.MeanApp == 0 {
		return 0
	}
	meanQueue := func(part []obsv.WindowSnap) float64 {
		var cyc, n uint64
		for _, w := range part {
			cyc += w.QueueCycles
			n += w.Count
		}
		if n == 0 {
			return 0
		}
		return float64(cyc) / float64(n)
	}
	return (meanQueue(ws[len(ws)-q:]) - meanQueue(ws[:q])) / v.MeanApp
}

func serveRun(seed int64, _ func() *obsv.Obs) (iterResult, error) {
	opts := serveOptions(seed, serveScale, serveSchemes)
	sp := startSpan("experiments.Serving")
	r, err := experiments.Serving(opts)
	sp = sp.end()
	if err != nil {
		return iterResult{}, fmt.Errorf("serve: %w", err)
	}
	if r.Rate != serveRate {
		return iterResult{}, fmt.Errorf("serve: offered %v requests/s, want %v", r.Rate, serveRate)
	}
	res := iterResult{spans: []span{sp}, sim: map[string]float64{}}
	var d digest
	byName := map[string]experiments.ServingVariant{}
	var parallel, ops, batches int
	for i, v := range r.Variants {
		if v.Series == nil {
			return iterResult{}, fmt.Errorf("serve: %s has no time series", v.Name)
		}
		done := int(v.Series.Count())
		res.attempted += r.Ops
		res.failed += r.Ops - done
		res.simCycles += v.SimCycles
		byName[serveSchemes[i]] = v
		parallel += v.Parallel
		ops += v.Parallel + v.Serial
		batches += v.Batches
		d.str(v.Name)
		d.f64(v.P50, v.P99, v.P999, v.Max, v.MeanApp, v.MeanInterf, v.MeanStall, v.MeanQueue, v.HitRate, v.FinalFragR)
		d.u64(v.SimCycles, uint64(v.Parallel), uint64(v.Serial), uint64(v.Batches), uint64(v.Evictions), uint64(done))
		for _, w := range v.Series.Windows() {
			d.u64(w.Index, w.Count, w.P50, w.P999, w.Max, w.AppCycles, w.InterfCycles, w.StallCycles, w.QueueCycles)
		}
		for _, iv := range v.Series.Intervals() {
			d.str(iv.Kind)
			d.u64(iv.Start, iv.End, iv.Epoch)
		}
	}
	ff, none, stw := byName["ffccd"], byName["none"], byName["stw"]
	res.sim["sim_p50_cycles"] = ff.P50
	res.sim["sim_p999_cycles"] = ff.P999
	res.sim["sim_requests"] = float64(ff.Series.Count())
	pause := longestSTW(ff.Series)
	res.sim["sim_max_pause_cycles"] = float64(pause)
	if pause > 0 {
		res.sim["sim_stw_pause_ratio"] = float64(longestSTW(stw.Series)) / float64(pause)
	}
	res.sim["sim_backlog_growth"] = backlogGrowth(ff)
	if none.FinalFragR > 1 {
		res.sim["sim_frag_reduction_pct"] = (none.FinalFragR - ff.FinalFragR) / (none.FinalFragR - 1) * 100
	}
	res.sim["sim_cycles_total"] = float64(res.simCycles)
	if ops > 0 {
		res.sim["serve.parallel_op_frac"] = float64(parallel) / float64(ops)
	}
	res.sim["serve.batches"] = float64(batches)
	d.f64(res.sim["sim_max_pause_cycles"], res.sim["sim_stw_pause_ratio"], res.sim["sim_backlog_growth"], res.sim["sim_frag_reduction_pct"])
	res.digest = d.sum()
	return res, nil
}

// --- crash-sweep ----------------------------------------------------------

func crashOptions(seed int64) faultinject.CampaignOptions {
	return faultinject.CampaignOptions{
		Seed:      mixSeed(seed, 3),
		MaxSites:  crashMaxSites,
		Nested:    true,
		MaxNested: crashMaxNested,
		Timeout:   crashTimeout,
	}
}

func crashSetup(seed int64) error {
	co := crashOptions(seed)
	co.MaxSites, co.Nested = 1, false
	out := faultinject.ExploreSetting(faultinject.AllSettings()[0], co)
	if len(out.Failures) > 0 {
		return fmt.Errorf("crash-sweep set-up: %s", out.Failures[0])
	}
	return nil
}

// crashRun runs the campaign setting by setting, as RunExploration does,
// timing each setting. Failed and hung trials are counted, not fatal; a
// failing census counts as one failed trial.
func crashRun(seed int64, trialObs func() *obsv.Obs) (iterResult, error) {
	co := crashOptions(seed)
	if trialObs != nil {
		co.Trial.Obs = func(faultinject.Setting, int64) *obsv.Obs { return trialObs() }
	}
	res := iterResult{sim: map[string]float64{}}
	var d digest
	var sites uint64
	var trials int
	for _, s := range faultinject.AllSettings() {
		sp := startSpan("faultinject.ExploreSetting " + s.String())
		out := faultinject.ExploreSetting(s, co)
		res.spans = append(res.spans, sp.end())
		scheduled := out.Scheduled
		if scheduled == 0 && len(out.Failures) > 0 {
			scheduled = len(out.Failures)
		}
		res.attempted += scheduled
		res.failed += len(out.Failures)
		trials += out.Scheduled
		sites += out.SitesTotal
		d.str(s.String())
		d.u64(out.SitesTotal, uint64(out.Scheduled), uint64(out.Passed), uint64(len(out.Failures)))
		if out.Skipped {
			d.u64(1)
		} else {
			d.u64(0)
		}
		for _, f := range out.Failures {
			d.str(f.Repro.MarshalLine())
		}
	}
	if res.attempted == 0 {
		return iterResult{}, fmt.Errorf("crash-sweep: no trial was scheduled")
	}
	res.sim["faultinject.trials"] = float64(trials)
	res.sim["faultinject.sites_total"] = float64(sites)
	res.digest = d.sum()
	return res, nil
}
