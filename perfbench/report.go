package main

import (
	"fmt"
	"io"
	"sort"
)

// printReport writes a run's metrics, by name and unit, and its
// per-repeat and per-step raw values.
func printReport(w io.Writer, res *result) {
	mode := "end-to-end"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %.0fs) on %s, %s, GOMAXPROCS=%d, %s\n", res.Workload, mode, res.Seed,
		res.Seconds, res.Env.CPUModel, res.Env.GoVersion, res.Env.GOMAXPROCS, res.Env.Commit)
	fmt.Fprintf(w, "   %d keys x %d B, zipf %.2f, %s, cache %d MiB, %d conns, nominal %.0f/s\n",
		res.Setup.Keys, res.Setup.ValueSize, res.Setup.Skew, res.Setup.Mix, res.Setup.CacheBytes>>20,
		res.Setup.Conns, res.Setup.NominalQPS)
	for i, t := range res.Setups {
		fmt.Fprintf(w, "   setup %d: load %.3fs (steal %.3f), warm-up %.3fs, wall %.3fs, net of steal %.3fs\n",
			i, t.LoadS, t.LoadSteal, t.WarmupS, t.WallS, t.SecondsNet)
	}
	for i, r := range res.Windows {
		fmt.Fprintf(w, "   window %d: %d ops, achieved %.0f/s, lag p99 %.3f ms, %v\n", i, r.Ops, r.AchievedQPS, r.LagP99Ms, fmtMap(r.Latency))
	}
	for _, s := range res.Ladder {
		fmt.Fprintf(w, "   ladder %.0f/s: achieved %.0f/s, %s p99 %.3f ms (limit %.0f), failed %d, lag %.3f->%.3f ms, meets=%v\n",
			s.Rate, s.AchievedQPS, res.Setup.Dominant, s.DominantP99Ms, res.Setup.P99LimitMs, s.Failed, s.LagFirstMs, s.LagLastMs, s.Meets)
	}
	if len(res.Layers) > 0 {
		fmt.Fprintf(w, "   %-6s %-32s %8s %10s %10s %7s\n", "kind", "layer", "ops", "mean_us", "p50_us", "share")
		for _, l := range res.Layers {
			if l.Aggregate {
				fmt.Fprintf(w, "   %-6s %-32s %8d %10.1f %10s %7s\n", l.Kind, l.Layer, l.Ops, l.MeanUs, "-", "-")
				continue
			}
			fmt.Fprintf(w, "   %-6s %-32s %8d %10.1f %10.1f %6.1f%%\n", l.Kind, l.Layer, l.Ops, l.MeanUs, l.P50Us, 100*l.Share)
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "   %-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(w, "   attempted %d, failed %d, read-back %d keys, valid=%v, correct=%v\n",
		res.Attempted, res.Failed, res.ReadBack.Keys, res.Valid, res.Correct)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   failure: %s\n", f)
	}
}

func fmtMap(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%s=%.3f ", k, m[k])
	}
	return s
}

// printSummary writes one table of every metric of several runs, a
// column per workload; "-" marks a metric a workload does not measure.
func printSummary(w io.Writer, all []*result) {
	seen := map[string]bool{}
	var names []string
	for _, r := range all {
		for k := range r.Metrics {
			if !seen[k] {
				seen[k] = true
				names = append(names, k)
			}
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %-6s", "metric", "unit")
	for _, r := range all {
		fmt.Fprintf(w, " %14s", r.Workload)
	}
	fmt.Fprintln(w)
	for _, k := range names {
		unit := ""
		for _, r := range all {
			if m, ok := r.Metrics[k]; ok {
				unit = m.Unit
			}
		}
		fmt.Fprintf(w, "%-36s %-6s", k, unit)
		for _, r := range all {
			if m, ok := r.Metrics[k]; ok {
				fmt.Fprintf(w, " %14.6g", m.Value)
			} else {
				fmt.Fprintf(w, " %14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	for _, r := range all {
		fmt.Fprintf(w, "%s: attempted %d, failed %d, correct=%v, valid=%v\n", r.Workload, r.Attempted, r.Failed, r.Correct, r.Valid)
		for _, f := range r.Failures {
			fmt.Fprintf(w, "  failure: %s\n", f)
		}
	}
}
