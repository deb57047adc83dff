package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareFiles prints one verdict per (workload, metric) of two timed
// result files and reports whether any is "worse".
func compareFiles(out io.Writer, oldPath, newPath string) (bool, error) {
	oldRep, err := readReport(oldPath)
	if err != nil {
		return false, err
	}
	newRep, err := readReport(newPath)
	if err != nil {
		return false, err
	}
	// Exact metrics are constants of a seed and a scale, so files from
	// different ones say nothing about each other.
	if oldRep.Env.Seed != newRep.Env.Seed || oldRep.Env.Scale != newRep.Env.Scale {
		return false, fmt.Errorf("cannot compare seed %d scale %s with seed %d scale %s",
			oldRep.Env.Seed, oldRep.Env.Scale, newRep.Env.Seed, newRep.Env.Scale)
	}
	anyWorse := false
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tchange\tbound\tverdict")
	for _, w := range workloads {
		o, okOld := oldRep.Workloads[w.name]
		n, okNew := newRep.Workloads[w.name]
		if !okOld || !okNew {
			continue
		}
		for _, m := range e2eMetrics {
			or, nr := o.Metrics[m.name], n.Metrics[m.name]
			v := verdict(m, or, nr)
			anyWorse = anyWorse || v == "worse"
			change := ""
			if or.Value != 0 {
				change = fmt.Sprintf("%+.2f%%", 100*(nr.Value-or.Value)/or.Value)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%s\t%s\n", w.name, m.name, or.Value, nr.Value, change, m.boundLabel(), v)
			if v == "unresolved" || v == "worse" {
				fmt.Fprintf(tw, "\t\t%s\t%s\t\t\thulls\n", hullString(or), hullString(nr))
			}
		}
	}
	tw.Flush()
	return anyWorse, nil
}

func hullString(r reading) string {
	if r.Hull == nil {
		return "-"
	}
	return fmt.Sprintf("[%.6g, %.6g]", r.Hull[0], r.Hull[1])
}

// verdict judges one metric of one workload. An exact metric is better,
// same or worse by its value alone. A measured one is past its bound when
// the new value is worse than the old by more than bound × old; it is then
// "worse" only if the per-round hulls are disjoint too, and "unresolved"
// if they overlap. "better" is the mirror image.
func verdict(m e2eMetric, old, new reading) string {
	sign := 1.0 // sign × (new − old) > 0 means worse
	if m.better == "higher" {
		sign = -1
	}
	delta := sign * (new.Value - old.Value)
	if m.exact {
		switch {
		case delta > 0:
			return "worse"
		case delta < 0:
			return "better"
		}
		return "same"
	}
	limit := m.bound * old.Value
	if delta <= limit && delta >= -limit {
		return "same"
	}
	oh, nh := old.Hull, new.Hull
	if oh == nil {
		oh = &[2]float64{old.Value, old.Value}
	}
	if nh == nil {
		nh = &[2]float64{new.Value, new.Value}
	}
	disjoint := nh[0] > oh[1] || nh[1] < oh[0]
	switch {
	case delta > 0 && disjoint:
		return "worse"
	case delta > 0:
		return "unresolved"
	case disjoint:
		return "better"
	}
	return "same"
}
