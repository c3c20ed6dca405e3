package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/md"
	"repro/internal/netmodel"
	"repro/internal/perf"
	"repro/internal/pmd"
)

// cluster-domain parameters: the md-seq minimised state run by pmd.Run
// at 128 simulated ranks, domain decomposition with 2-D pencil PME, MPI
// over TCP Gigabit Ethernet.
const (
	clusterRanks      = 128
	clusterProbeSteps = 3  // steps of each extra set-up run; the last step runs short
	clusterMinSteps   = 10 // timed steps at least, whatever --seconds says
	// The domain ≡ replicated contract is checked at a rank count the
	// replicated slab PME can tile (it needs p ≤ K1 = 80).
	clusterCheckRanks = 8
	clusterCheckSteps = 3
	// The 128-rank energies are checked against the sequential engine.
	clusterSeqSteps = 10
	clusterSeqTol   = 1e-6
)

// domainRun is one pmd.Run with the OnStep wall-clock stamps.
type domainRun struct {
	res     *pmd.Result
	start   time.Time
	stamps  []time.Time // host time of each OnStep call
	allocMB [2]float64  // traced: MB allocated by the first and by the last OnStep
}

func (d *domainRun) setupS() float64 { return d.stamps[0].Sub(d.start).Seconds() }

// stepsMS returns the host time between consecutive OnStep calls; the
// first call closes the set-up.
func (d *domainRun) stepsMS() []float64 {
	var out []float64
	for i := 1; i < len(d.stamps); i++ {
		out = append(out, float64(d.stamps[i].Sub(d.stamps[i-1]).Nanoseconds())/1e6)
	}
	return out
}

func runClusterDomain(o options, tr *tracer) (*report, error) {
	r := &report{layer: map[string]float64{}, params: map[string]interface{}{
		"ranks": clusterRanks, "decomp": "domain", "pme": "2-D pencil", "net": "tcp-gige", "middleware": "MPI",
		"host_workers": o.nproc, "kernel_workers": o.nproc,
		"check_ranks": clusterCheckRanks,
	}}
	// The minimised state is md-seq's set-up; it is input here, not part
	// of setup_s, which runs from pmd.Run to the first OnStep.
	prep, in, _ := mdSetup(o.seed, o.nproc, nil, 0)
	snap := prep.Snapshot()
	if err := tr.startProfile(); err != nil {
		return nil, err
	}
	ccfg := cluster.Config{Nodes: clusterRanks, CPUsPerNode: 1, Net: netmodel.TCPGigE(), Seed: o.seed}
	run := func(ranks int, decomp pmd.DecompKind, steps int, tl *perf.Timeline, traced bool) (*domainRun, error) {
		cc := ccfg
		cc.Nodes = ranks
		d := &domainRun{}
		var ms runtime.MemStats
		var alloc0 uint64
		if traced {
			runtime.ReadMemStats(&ms)
			alloc0 = ms.TotalAlloc
		}
		d.start = time.Now()
		res, err := pmd.Run(cc, cluster.PentiumIII1GHz(), pmd.Config{
			System: in.sys, MD: in.cfg, Steps: steps, Middleware: pmd.MiddlewareMPI,
			Decomp: decomp, Init: snap, HostWorkers: o.nproc, Perf: tl,
			OnStep: func(step int, _ pmd.StepTiming, _ md.EnergyReport) {
				d.stamps = append(d.stamps, time.Now())
				if traced && (step == 0 || step == steps-1) {
					runtime.ReadMemStats(&ms)
					d.allocMB[min(step, 1)] = float64(ms.TotalAlloc-alloc0) / (1 << 20)
				}
			},
		})
		if err != nil {
			return nil, fmt.Errorf("cluster-domain: %d-rank %v run: %w", ranks, decomp, err)
		}
		d.res = res
		return d, nil
	}

	// Extra set-ups are short runs; each also estimates the step time
	// that sizes the timed run.
	var probes []*domainRun
	var estS float64
	for i := 0; i < max(o.setups-1, 1); i++ {
		p, err := run(clusterRanks, pmd.DecompDomain, clusterProbeSteps, nil, false)
		if err != nil {
			return nil, err
		}
		probes = append(probes, p)
		r.setupS = append(r.setupS, p.setupS())
		estS = p.stepsMS()[0] / 1e3
	}
	steps := 1 + max(clusterMinSteps, int(math.Ceil(o.seconds/estS)))
	var tl *perf.Timeline
	if tr != nil {
		tl = perf.NewTimeline(clusterRanks, steps)
	}
	meter := startCPU()
	main, err := run(clusterRanks, pmd.DecompDomain, steps, tl, tr != nil)
	if err != nil {
		return nil, err
	}
	r.cpuUtil = meter.util(o.nproc)
	r.peakRSSMB = peakRSSMB()
	tr.stopProfile()
	r.setupS = append(r.setupS, main.setupS())
	r.opsMS = main.stepsMS()
	r.attempted = len(r.opsMS)
	r.params["timed_steps"] = len(r.opsMS)
	r.params["virtual_wall_s"] = main.res.Wall
	if tr != nil {
		pid := tr.record("pmd.Run", 0, main.start, main.stamps[len(main.stamps)-1])
		tr.record("pmd.setup+step0", pid, main.start, main.stamps[0])
		for i := 1; i < len(main.stamps); i++ {
			tr.record("pmd.step", pid, main.stamps[i-1], main.stamps[i])
		}
		var bytes int64
		for _, a := range main.res.Acct {
			bytes += a.BytesSent
		}
		var calls int64
		for _, c := range main.res.Profile(tl).Collectives {
			calls += c.Calls
		}
		r.layer["pmd.setup_s"] = main.setupS()
		r.layer["pmd.setup_alloc_mb"] = main.allocMB[0]
		r.layer["pmd.step_alloc_mb"] = (main.allocMB[1] - main.allocMB[0]) / float64(steps-1)
		r.layer["mpi.bytes_per_step"] = float64(bytes) / float64(steps)
		r.layer["mpi.collectives_per_step"] = float64(calls) / float64(steps)
		r.layer["sim.virtual_s_per_step"] = main.res.Wall / float64(steps)
	}

	// Checks, outside the timed phase: domain ≡ replicated at a rank
	// count both can tile, and the sequential engine as a reference.
	rep, err := run(clusterCheckRanks, pmd.DecompReplicated, clusterCheckSteps, nil, false)
	if err != nil {
		return nil, err
	}
	dom, err := run(clusterCheckRanks, pmd.DecompDomain, clusterCheckSteps, nil, false)
	if err != nil {
		return nil, err
	}
	ref := md.NewEngine(in.sys, in.cfg)
	if err := ref.Restore(snap); err != nil {
		return nil, err
	}
	want := ref.Run(min(clusterSeqSteps, steps), nil, nil)
	var probeRes []*pmd.Result
	for _, p := range probes {
		probeRes = append(probeRes, p.res)
	}
	r.checks = append(r.checks, clusterChecks(probeRes, main.res, rep.res, dom.res, want)...)
	return r, nil
}

// clusterChecks returns the failed cluster-domain checks: every set-up
// run repeats the timed run's first steps bit for bit, the domain and
// replicated runs agree bit for bit, and the timed run's energies follow
// the sequential engine within clusterSeqTol.
func clusterChecks(probes []*pmd.Result, main, rep, dom *pmd.Result, seq []md.EnergyReport) []string {
	var out []string
	for i, p := range probes {
		n := len(p.Energies)
		if n > len(main.Energies) || !reflect.DeepEqual(p.Energies, main.Energies[:n]) {
			out = append(out, fmt.Sprintf("cluster-domain: set-up run %d energies differ from the timed run", i+1))
		}
	}
	if !reflect.DeepEqual(rep.Energies, dom.Energies) || !reflect.DeepEqual(rep.FinalPos, dom.FinalPos) {
		out = append(out, fmt.Sprintf("cluster-domain: domain and replicated runs at %d ranks differ", rep.P))
	}
	if len(main.Energies) < len(seq) {
		return append(out, fmt.Sprintf("cluster-domain: %d steps, want at least %d", len(main.Energies), len(seq)))
	}
	for s := range seq {
		g, w := main.Energies[s].Total(), seq[s].Total()
		if rel := math.Abs(g-w) / math.Abs(w); !(rel <= clusterSeqTol) {
			return append(out, fmt.Sprintf("cluster-domain: step %d total %g vs sequential %g (rel %.3g)", s, g, w, rel))
		}
	}
	return out
}
