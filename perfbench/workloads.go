package main

import (
	"fmt"

	"adcache/internal/workload"
)

// opKind indexes the per-kind latency series.
type opKind int

const (
	kindGet opKind = iota
	kindScan
	kindPut
	nKinds
)

var kindNames = [nKinds]string{"get", "scan", "put"}

func kindOf(k workload.OpKind) opKind {
	switch k {
	case workload.OpGet:
		return kindGet
	case workload.OpScan:
		return kindScan
	default:
		return kindPut
	}
}

// valueSize is the value payload of every workload (the paper's record
// size scaled down, as the repo's other harnesses do).
const valueSize = 128

// spec is one workload: a data set, an operation mix over it, the node's
// cache budget, and the offered rates it is measured at. Rates were set
// on a 2-core Xeon VM, where reads and writes each have one connection:
// nominalQPS keeps the read connection no more than about a third busy,
// and the ladder climbs towards the rate where a connection saturates.
type spec struct {
	name       string
	keys       int
	skew       float64
	mix        workload.Mix
	cacheBytes int64
	nominalQPS float64
	ladder     []float64 // ascending offered rates for max_qps
	dominant   opKind    // the op whose p99 the ladder holds to p99LimitMs
	p99LimitMs float64
}

// specs are the benchmark's workloads; README.md says why each exists.
var specs = []spec{
	{
		name:       "point-zipf",
		keys:       400_000,
		skew:       0.99,
		mix:        workload.Mix{GetPct: 95, WritePct: 5},
		cacheBytes: 8 << 20,
		nominalQPS: 2000,
		ladder:     []float64{3000, 4000, 5000},
		dominant:   kindGet,
		p99LimitMs: 20,
	},
	{
		name:       "scan-long",
		keys:       400_000,
		skew:       0.99,
		mix:        workload.Mix{LongScanPct: 95, WritePct: 5},
		cacheBytes: 8 << 20,
		nominalQPS: 600,
		ladder:     []float64{800, 1000, 1200},
		dominant:   kindScan,
		p99LimitMs: 20,
	},
	{
		name:       "write-mix",
		keys:       40_000,
		skew:       0.9,
		mix:        workload.Mix{GetPct: 25, ShortScanPct: 25, WritePct: 50},
		cacheBytes: 8 << 20,
		nominalQPS: 2000,
		ladder:     []float64{3000, 4000, 5000},
		dominant:   kindPut,
		p99LimitMs: 20,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// generatorFor returns the workload's op generator for seed. Every set-up
// and the measured phases draw from generators built here, so one seed
// fixes every key, value and scan start the run sends.
func (s spec) generatorFor(seed int64) *workload.Generator {
	return workload.NewGenerator(workload.Config{
		NumKeys:   s.keys,
		ValueSize: valueSize,
		PointSkew: s.skew,
		ScanSkew:  s.skew,
		Seed:      seed,
	})
}
