// Command hostbench is the repository's host-time benchmark. It times the
// reproduction's public entry points from outside — md.Engine.Step,
// pmd.Run with its OnStep hook, core.Study, and the serve HTTP API — on
// four seeded workloads, checks each workload's outputs, and prints one
// JSON result line.
//
// Usage (from the repository root, through the build script):
//
//	bash hostbench/run.sh --workload md-seq --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of an uninstrumented run.
// --trace 1 prints the per-layer metrics: it repeats the timed phase once
// clean and once with spans, work counters and a CPU profile, and writes
// the spans and the profile under .bench_build/trace/. See README.md.
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
	"syscall"
	"time"
)

// workload is one benchmark input set. run executes it once: setups
// timed set-ups, then the timed phase for the given seconds, then the
// correctness checks. A non-nil tracer instruments the run.
type workload struct {
	name string
	why  string
	run  func(o options, tr *tracer) (*report, error)
}

// workloads lists every workload BENCHMARK.json gates.
var workloads = []workload{
	{"md-seq", "sequential engine on the 3552-atom PME system: the physics layers do nearly all the work", runMDSeq},
	{"cluster-domain", "128 simulated ranks, domain decomposition over TCP: the sim scheduler and mpi model dominate", runClusterDomain},
	{"figure-study", "core.NewStudy + Study.All on the paper protocol: run cache, tapes and replicated pmd", runFigureStudy},
	{"serve-mix", "open-loop Poisson requests to an in-process serve: admission, queue, store and journal", runServeMix},
}

// options are the inputs every workload receives.
type options struct {
	seed    uint64
	seconds float64
	setups  int // timed set-ups; the last one feeds the timed phase
	nproc   int
}

// report is what one workload run measured.
type report struct {
	setupS    []float64 // one per timed set-up
	opsMS     []float64 // one per timed operation
	attempted int
	failed    int      // operations that errored, plus failed checks
	checks    []string // failed correctness checks, empty when correct
	peakRSSMB float64  // at the end of the timed phase
	cpuUtil   float64  // process CPU / (wall × nproc) over the timed phase
	layer     map[string]float64
	params    map[string]interface{}
}

func (r *report) fail(format string, args ...interface{}) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: md-seq, cluster-domain, figure-study or serve-mix")
	seed := flag.Uint64("seed", 1, "input seed (topology, velocities, arrival stream)")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || *seed == 0 {
		fmt.Fprintln(os.Stderr, "hostbench: need --workload {md-seq,cluster-domain,figure-study,serve-mix}, --seed > 0, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, nproc: runtime.NumCPU()}
	res, prov, err := execute(*wl, o, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	pj, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", pj)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// execute runs the workload in the requested mode and assembles the
// result line and its provenance.
func execute(wl workload, o options, traced bool) (*result, map[string]interface{}, error) {
	var rep *report
	metrics := map[string]metric{}
	if !traced {
		o.setups = 3
		r, err := wl.run(o, nil)
		if err != nil {
			return nil, nil, err
		}
		rep = r
		metrics = endToEnd(r)
	} else {
		// The clean pass is the baseline the tracing overhead is taken
		// against; the traced pass supplies every per-layer figure.
		o.setups = 1
		clean, err := wl.run(o, nil)
		if err != nil {
			return nil, nil, err
		}
		tr, err := newTracer(filepath.Join(".bench_build", "trace"), wl.name, o.seed)
		if err != nil {
			return nil, nil, err
		}
		r, err := wl.run(o, tr)
		if err != nil {
			return nil, nil, err
		}
		rep = r
		rep.checks = append(clean.checks, r.checks...)
		if err := tr.flush(); err != nil {
			return nil, nil, err
		}
		for name, unit := range perLayerUnits {
			metrics[name] = metric{Value: r.layer[name], Unit: unit}
		}
		hs, total := tr.hostSeconds()
		for pkg, s := range hs {
			metrics["host_s."+pkg] = metric{Value: s, Unit: "s"}
		}
		metrics["host_s.profiled"] = metric{Value: total, Unit: "s"}
		metrics["cpu_util"] = metric{Value: clean.cpuUtil, Unit: "frac"}
		metrics["trace_overhead_frac"] = metric{
			Value: median(r.opsMS)/median(clean.opsMS) - 1, Unit: "frac"}
		rep.params["trace_spans"] = tr.spanPath
		rep.params["trace_cpuprofile"] = tr.profPath
	}
	failed := rep.failed + len(rep.checks)
	if failed > rep.attempted {
		failed = rep.attempted
	}
	for _, c := range rep.checks {
		fmt.Fprintln(os.Stderr, "hostbench: check failed:", c)
	}
	prov := provenance(wl, o, traced, rep)
	return &result{
		Correct:   len(rep.checks) == 0,
		Attempted: rep.attempted,
		Failed:    failed,
		Metrics:   metrics,
	}, prov, nil
}

// endToEnd reduces a report to the end-to-end metrics.
func endToEnd(r *report) map[string]metric {
	out := map[string]metric{}
	for name, v := range map[string]float64{
		"setup_s":     median(r.setupS),
		"op_ms_p50":   median(r.opsMS),
		"op_ms_tail":  percentile(r.opsMS, tailQuantile(len(r.opsMS))),
		"peak_rss_mb": r.peakRSSMB,
	} {
		out[name] = metric{Value: v, Unit: endToEndUnits[name]}
	}
	return out
}

// percentile returns the nearest-rank q-quantile of xs (0 for none).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailQuantile is the highest quantile, at most 0.95 and at least the
// median, that leaves ten of n samples beyond it.
func tailQuantile(n int) float64 {
	return math.Max(0.5, math.Min(0.95, 1-10/float64(max(n, 1))))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// peakRSSMB returns the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// cpuMeter measures cpu_util over one timed phase.
type cpuMeter struct {
	wall time.Time
	cpu  float64
}

func startCPU() cpuMeter { return cpuMeter{time.Now(), cpuSeconds()} }

func (m cpuMeter) util(nproc int) float64 {
	return (cpuSeconds() - m.cpu) / (time.Since(m.wall).Seconds() * float64(nproc))
}

// sinceMS returns the milliseconds elapsed since t.
func sinceMS(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
