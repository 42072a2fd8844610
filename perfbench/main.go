// Command perfbench is the repository's end-to-end benchmark: it serves
// one adcached-equivalent node in process over loopback HTTP and drives
// it open-loop through the public client, on one of three workloads.
//
//	bash perfbench/run.sh --workload point-zipf --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload all     # every workload, one report
//
// With --trace 0 it measures the end-to-end metrics (latency from each
// op's due time, max_qps on a fixed rate ladder, set-up time, space and
// memory); with --trace 1 a traced run gives the per-layer metrics. The
// last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics. README.md documents the workloads and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Run shape. A --trace 0 run sets up `setups` times and reports the
// median set-up time, then sends the nominal rate for nominalShare of
// --seconds (recording `windows` back-to-back windows of it as raw
// values), then climbs the max_qps ladder in the rest.
const (
	setups       = 3
	warmupS      = 2.0
	windows      = 5
	nominalShare = 0.7
	maxConns     = 2
)

func main() {
	if err := benchmark(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchmark() error {
	var (
		name    = flag.String("workload", "", "workload: point-zipf, scan-long, write-mix, or all")
		seed    = flag.Int64("seed", 1, "seed of every generated key, value and scan")
		seconds = flag.Int("seconds", 15, "measured seconds per run")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		outDir  = flag.String("out", ".bench_build/results", "directory for result files and spans")
		dataDir = flag.String("data", ".bench_build/data", "directory for the stores")
	)
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	cfg := runConfig{seed: *seed, seconds: float64(*seconds), trace: *traced == 1, outDir: *outDir,
		dataDir: filepath.Join(*dataDir, fmt.Sprintf("run-%d", os.Getpid())), conns: min(maxConns, runtime.NumCPU())}
	defer os.RemoveAll(cfg.dataDir)

	if *name == "all" {
		var all []*result
		for _, sp := range specs {
			res, err := run(sp, cfg)
			if err != nil {
				return err
			}
			printReport(os.Stdout, res)
			if err := writeResult(cfg.outDir, res); err != nil {
				return err
			}
			all = append(all, res)
		}
		printSummary(os.Stdout, all)
		return nil
	}
	sp, err := specByName(*name)
	if err != nil {
		return err
	}
	res, err := run(sp, cfg)
	if err != nil {
		return err
	}
	printReport(os.Stdout, res)
	if err := writeResult(cfg.outDir, res); err != nil {
		return err
	}
	names := e2eMetrics
	if cfg.trace {
		names = perLayerMetrics
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for _, d := range names {
		m, ok := res.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if m.Unit != d.unit {
			return fmt.Errorf("metric %s is in %s, BENCHMARK.json says %s", d.name, m.Unit, d.unit)
		}
		line.Metrics[d.name] = m
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	dataDir string
	conns   int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run measured; writeResult stores it whole.
type result struct {
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Traced    bool                  `json:"traced"`
	Env       envInfo               `json:"env"`
	Setup     setupInfo             `json:"setup"`
	Setups    []setupTime           `json:"setup_raw"`
	Warmup    []phaseStats          `json:"warmup"`
	Windows   []phaseStats          `json:"windows,omitempty"`
	SpaceAmp  []float64             `json:"space_amp_samples,omitempty"`
	Ladder    []ladderStep          `json:"ladder,omitempty"`
	Phases    map[string]phaseStats `json:"trace_phases,omitempty"`
	Layers    []layerRow            `json:"layer_table,omitempty"`
	Metrics   map[string]metric     `json:"metrics"`
	Notes     map[string]string     `json:"notes"`
	ReadBack  readBack              `json:"read_back"`
	Valid     bool                  `json:"valid"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Failures  []string              `json:"first_failures,omitempty"`
}

type setupInfo struct {
	Keys        int       `json:"keys"`
	ValueSize   int       `json:"value_size"`
	Skew        float64   `json:"zipf_theta"`
	Mix         string    `json:"mix"`
	CacheBytes  int64     `json:"cache_bytes"`
	NominalQPS  float64   `json:"nominal_qps"`
	Ladder      []float64 `json:"ladder_qps"`
	P99LimitMs  float64   `json:"p99_limit_ms"`
	Dominant    string    `json:"dominant_op"`
	Conns       int       `json:"connections"`
	Setups      int       `json:"setups"`
	WarmupS     float64   `json:"warmup_s"`
	Windows     int       `json:"windows"`
	WindowS     float64   `json:"window_s"`
	LadderStepS float64   `json:"ladder_step_s"`
}

type ladderStep struct {
	phaseStats
	DominantP99Ms float64 `json:"dominant_p99_ms_failed_as_miss"`
	Meets         bool    `json:"meets"`
}

type readBack struct {
	Keys       int `json:"keys"`
	Mismatches int `json:"mismatches"`
}

func (sp spec) mixString() string {
	m := sp.mix
	return fmt.Sprintf("get %d%%, scan16 %d%%, scan64 %d%%, put %d%%", m.GetPct, m.ShortScanPct, m.LongScanPct, m.WritePct)
}

func run(sp spec, cfg runConfig) (*result, error) {
	res := &result{
		Workload: sp.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace,
		Env: environment(), Metrics: map[string]metric{}, Valid: true,
		Notes: map[string]string{
			"latency":     "ms from each op's due time on a fixed-interval open-loop schedule; failed ops left out (see error_rate)",
			"peak_rss_mb": "VmHWM of the benchmark process, which holds the load generator and the node",
		},
		Setup: setupInfo{
			Keys: sp.keys, ValueSize: valueSize, Skew: sp.skew, Mix: sp.mixString(), CacheBytes: sp.cacheBytes,
			NominalQPS: sp.nominalQPS, Ladder: sp.ladder, P99LimitMs: sp.p99LimitMs, Dominant: kindNames[sp.dominant],
			Conns: cfg.conns, WarmupS: warmupS,
		},
	}
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		return nil, err
	}
	fails := &failures{}
	var err error
	if cfg.trace {
		err = runTraced(sp, cfg, res, fails)
	} else {
		err = runEndToEnd(sp, cfg, res, fails)
	}
	if err != nil {
		return nil, err
	}
	res.Failed = fails.n
	res.Failures = fails.first
	res.Correct = fails.mismatch == 0 && res.ReadBack.Mismatches == 0
	if res.Attempted > 0 {
		res.Metrics["error_rate"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
	}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MiB"}
	return res, nil
}

// session is one node under load, with every op sent to it.
type session struct {
	sp   spec
	n    *node
	d    *loader
	hist [][]opRec
}

// phase sends seconds of the workload at rate and returns its ops.
func (s *session) phase(rate, seconds float64) ([]opRec, error) {
	recs := plan(s.d.gen, s.sp.mix, rate, seconds)
	if err := s.d.run(recs, rate); err != nil {
		return nil, err
	}
	s.hist = append(s.hist, recs)
	return recs, nil
}

func (s *session) attempted() int {
	n := 0
	for _, recs := range s.hist {
		n += len(recs)
	}
	return n
}

// setupTime is one set-up's wall time in its two parts.
type setupTime struct {
	LoadS      float64 `json:"load_s"`      // open, preload, flush, compact, serve
	LoadSteal  float64 `json:"load_steal"`  // host CPU share stolen by the hypervisor meanwhile
	WarmupS    float64 `json:"warmup_s"`    // the warm-up phase
	WallS      float64 `json:"wall_s"`      // LoadS + WarmupS
	SecondsNet float64 `json:"seconds_net"` // what setup_s reports; see netOfSteal
}

// netOfSteal is the set-up time without the hypervisor's steal: the load
// part is CPU-bound, so a stolen share s of the host's CPU stretches it
// by 1/(1-s), and it is scaled back by (1-s); the warm-up is a fixed
// schedule and counts as it ran. On the shared VMs this was tuned on,
// steal moved from 0 to 40% between minutes and wall set-up time with
// it by up to 1.7x, while the work done stayed the same.
func (t setupTime) netOfSteal() float64 { return t.LoadS*(1-t.LoadSteal) + t.WarmupS }

// setUp opens, preloads, flushes, compacts and warms a node, and returns
// it with the time all that took. The warm-up sends the workload at its
// nominal rate so the caches fill and the controller leaves its initial
// parameters; the measured phases continue the same op stream.
func setUp(sp spec, cfg runConfig, i int, tr *tracer, fails *failures) (*session, setupTime, error) {
	var t setupTime
	start, host0 := time.Now(), readHostTicks()
	n, err := openNode(filepath.Join(cfg.dataDir, fmt.Sprintf("store-%d", i)), sp, cfg.conns, tr, nil)
	if err != nil {
		return nil, t, err
	}
	t.LoadS = time.Since(start).Seconds()
	_, t.LoadSteal = readHostTicks().since(host0)
	s := &session{sp: sp, n: n, d: &loader{cl: n.cl, conns: cfg.conns, numKeys: sp.keys, fails: fails, gen: sp.generatorFor(cfg.seed)}}
	if _, err := s.phase(sp.nominalQPS, warmupS); err != nil {
		n.close()
		return nil, t, err
	}
	t.WallS = time.Since(start).Seconds()
	t.WarmupS = t.WallS - t.LoadS
	t.SecondsNet = t.netOfSteal()
	return s, t, nil
}

func runEndToEnd(sp spec, cfg runConfig, res *result, fails *failures) error {
	var s *session
	for i := 0; i < setups; i++ {
		si, t, err := setUp(sp, cfg, i, nil, fails)
		if err != nil {
			return err
		}
		res.Setups = append(res.Setups, t)
		st := summarize(si.hist[0], sp.nominalQPS)
		res.Warmup = append(res.Warmup, st)
		if i == setups-1 {
			s = si
			break
		}
		res.Attempted += si.attempted()
		if err := si.n.close(); err != nil {
			return err
		}
	}
	defer s.n.close()
	res.Setup.Setups = setups
	res.reportSetup()

	space := sampleEverySecond(func() float64 {
		b, err := s.n.sstBytes()
		if err != nil {
			return math.NaN()
		}
		return float64(b) / float64(sp.keys*(24+valueSize))
	})

	// Nominal-rate windows, sent as one continuous schedule.
	windowS := cfg.seconds * nominalShare / windows
	res.Setup.Windows, res.Setup.WindowS = windows, windowS
	cpu0, host0 := cpuSeconds(), readHostTicks()
	recs, err := s.phase(sp.nominalQPS, windowS*windows)
	if err != nil {
		return err
	}
	res.Metrics["cpu_us_per_op"] = metric{(cpuSeconds() - cpu0) / float64(len(recs)) * 1e6, "us"}
	iowait, steal := readHostTicks().since(host0)
	res.Metrics["host_iowait_frac"] = metric{iowait, "ratio"}
	res.Metrics["host_steal_frac"] = metric{steal, "ratio"}
	// Latency metrics pool the whole nominal phase; the per-window values
	// are kept as the raw record of how they moved within the run.
	per := len(recs) / windows
	for w := 0; w < windows; w++ {
		st := summarize(recs[w*per:(w+1)*per], sp.nominalQPS)
		res.Windows = append(res.Windows, st)
		if st.lagGrows() {
			res.Valid = false
		}
	}
	nominal := measureStep(recs, sp.nominalQPS, sp)
	for k, v := range nominal.Latency {
		res.Metrics[k+"_ms"] = metric{v, "ms"}
	}

	// max_qps: the nominal phase is the ladder's first step; climb the
	// rest until a step misses.
	res.Ladder = append(res.Ladder, nominal)
	stepS := cfg.seconds * (1 - nominalShare) / float64(len(sp.ladder))
	res.Setup.LadderStepS = stepS
	maxQPS := 0.0
	if nominal.Meets {
		maxQPS = sp.nominalQPS
		for _, rate := range sp.ladder {
			recs, err := s.phase(rate, stepS)
			if err != nil {
				return err
			}
			step := measureStep(recs, rate, sp)
			res.Ladder = append(res.Ladder, step)
			if !step.Meets {
				break
			}
			maxQPS = rate
		}
	}
	res.Metrics["max_qps"] = metric{maxQPS, "1/s"}
	res.SpaceAmp = space.done()
	res.Metrics["space_amp"] = metric{median(res.SpaceAmp), "ratio"}

	res.Attempted += s.attempted()
	verifyReadBack(s, res, fails)
	return s.n.close()
}

// reportSetup reports the median set-up time net of steal as setup_s,
// and the median wall time beside it.
func (res *result) reportSetup() {
	var net, wall []float64
	for _, t := range res.Setups {
		net, wall = append(net, t.SecondsNet), append(wall, t.WallS)
	}
	res.Metrics["setup_s"] = metric{median(net), "s"}
	res.Metrics["setup_wall_s"] = metric{median(wall), "s"}
}

// verifyReadBack reads back every key whose last acked put had no other
// write to it in flight and checks it holds that put's value.
func verifyReadBack(s *session, res *result, fails *failures) {
	want := readBackSet(s.hist)
	keys := make([]int, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, idx := range keys {
		key := fmt.Sprintf("user%020d", idx)
		v, ok, err := s.n.cl.Get([]byte(key))
		res.Attempted++
		switch {
		case err != nil:
			fails.add(false, "read-back %s: %v", key, err)
		case !ok || string(v) != string(want[idx]):
			res.ReadBack.Mismatches++
			fails.add(true, "read-back %s: got %.30q, want %.30q", key, v, want[idx])
		}
	}
	res.ReadBack.Keys = len(keys)
}

func writeResult(dir string, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if res.Traced {
		trace = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, res.Seed, trace)), b, 0o644)
}
