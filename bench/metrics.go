package main

import (
	"fmt"
	"math"
	"sort"
)

// e2eMetric is one end-to-end metric: what a caller of engine.Job pays, or
// what the paper counts.
type e2eMetric struct {
	name, unit, better string
	// bound is the share of the old median by which the metric may worsen
	// before `-compare` and BENCHMARK.json call it a regression; it is
	// sized to hold across seeds, as the benchmark contract checks it.
	// 0 keeps the metric out of BENCHMARK.json's end_to_end list.
	bound float64
	// exact metrics are constants of (commit, seed, scale): `-compare`
	// wants them bit-identical and ignores bound.
	exact bool
}

// boundLabel is how tables print the metric's bound.
func (m e2eMetric) boundLabel() string {
	if m.exact {
		return "exact"
	}
	return fmt.Sprintf("%g%%", 100*m.bound)
}

// e2eMetrics is the thirteen end-to-end metrics in reporting order.
// BENCHMARK.json lists the ones with a bound; bench_test.go keeps the two
// in step.
var e2eMetrics = []e2eMetric{
	{name: "pass_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "pass_ms_p90", unit: "ms", better: "lower", bound: 0.25},
	{name: "tuples_per_s", unit: "tuples/s", better: "higher", bound: 0.25},
	{name: "load_max", unit: "tuples", better: "lower", exact: true},
	{name: "load_over_linear", unit: "ratio", better: "lower", exact: true},
	{name: "rounds", unit: "count", better: "lower", exact: true},
	{name: "comm_tuples", unit: "tuples", better: "lower", bound: 0.10, exact: true},
	{name: "dispatch_regret", unit: "ratio", better: "lower", exact: true},
	{name: "allocs_per_pass", unit: "count", better: "lower", bound: 0.10},
	{name: "alloc_mb_per_pass", unit: "MB", better: "lower", bound: 0.15},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "failed_frac", unit: "fraction", better: "lower", exact: true},
}

// reading is one metric's value for one workload. Hull is the [min, max]
// of the per-round estimates: with R rounds as batches, the hull of R
// median-unbiased estimates covers the true value except with probability
// 2^(1-R) whatever the noise distribution (HulC), so two disjoint hulls
// are a resolved difference and two overlapping ones are not.
type reading struct {
	Value float64     `json:"value"`
	Unit  string      `json:"unit"`
	N     int         `json:"n,omitempty"`
	Hull  *[2]float64 `json:"hull,omitempty"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile interpolates linearly between the order statistics; 0 for no
// samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func hull(xs []float64) *[2]float64 {
	if len(xs) == 0 {
		return nil
	}
	s := sorted(xs)
	return &[2]float64{s[0], s[len(s)-1]}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// summarize turns a workload's rounds into its end-to-end readings. The
// exact metrics come from round 0; run has already counted any round that
// disagrees with it as a failure.
func summarize(rounds []roundResult) map[string]reading {
	var all, p50s, p90s, rates, allocs, allocMB, rss, setups []float64
	var tuples, seconds, mallocs, bytes, passes float64
	attempted, failed := 0, 0
	for _, r := range rounds {
		n := float64(len(r.PassMS))
		secs := sum(r.PassMS) / 1e3
		all = append(all, r.PassMS...)
		p50s = append(p50s, median(r.PassMS))
		p90s = append(p90s, percentile(r.PassMS, 0.9))
		rates = append(rates, float64(r.Tuples)/secs)
		allocs = append(allocs, float64(r.Mallocs)/n)
		allocMB = append(allocMB, float64(r.AllocBytes)/n/1e6)
		rss = append(rss, r.PeakRSSKB/1e3)
		setups = append(setups, r.SetupS)
		tuples += float64(r.Tuples)
		seconds += secs
		mallocs += float64(r.Mallocs)
		bytes += float64(r.AllocBytes)
		passes += n
		attempted += r.Attempted
		failed += r.Failed
	}
	first := rounds[0]
	values := map[string]reading{
		"pass_ms_p50":       {Value: median(all), N: len(all), Hull: hull(p50s)},
		"pass_ms_p90":       {Value: percentile(all, 0.9), N: len(all), Hull: hull(p90s)},
		"tuples_per_s":      {Value: tuples / seconds, Hull: hull(rates)},
		"load_max":          {Value: float64(first.Pass.LoadMax)},
		"load_over_linear":  {Value: first.Pass.LoadOverLinear},
		"rounds":            {Value: float64(first.Pass.Rounds)},
		"comm_tuples":       {Value: float64(first.Pass.CommTuples)},
		"dispatch_regret":   {Value: first.Regret},
		"allocs_per_pass":   {Value: mallocs / passes, Hull: hull(allocs)},
		"alloc_mb_per_pass": {Value: bytes / passes / 1e6, Hull: hull(allocMB)},
		"peak_rss_mb":       {Value: median(rss), Hull: hull(rss)},
		"setup_s":           {Value: median(setups), Hull: hull(setups)},
		"failed_frac":       {Value: float64(failed) / float64(attempted)},
	}
	for _, m := range e2eMetrics {
		r := values[m.name]
		r.Unit = m.unit
		values[m.name] = r
	}
	return values
}
