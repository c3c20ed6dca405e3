package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/ewald"
	"repro/internal/fft"
	"repro/internal/kernels"
	"repro/internal/md"
	"repro/internal/obs"
	"repro/internal/topol"
	"repro/internal/vec"
	"repro/internal/work"
)

// md-seq parameters. The system is the paper's 3552-atom myoglobin box
// with PME on the 80×36×48 mesh; set-up is the topology build plus
// mdrun's 50-step minimisation and 300 K velocities.
const (
	mdMinimizeSteps = 50
	mdTemperatureK  = 300
	mdMinTimedSteps = 200 // so that op_ms_tail reaches p95 with ten samples beyond it
	mdReplaySteps   = 20  // steps replayed on a second set-up for the position check
	// mdDriftBound bounds the total-energy fluctuation, max |E(t) − E(0)|,
	// as a share of |E(0)|. NVE at 1 fs holds it near 0.1%.
	mdDriftBound = 0.005
	// kernel replays and the kernels.speedup probe
	mdReplayReps   = 10
	mdSpeedupSteps = 20
)

// mdSystem is the workload's input at a given seed.
type mdSystem struct {
	seed  uint64
	sys   *topol.System
	cfg   md.Config
	nproc int
}

// mdSetup builds the system and minimises it the way mdrun does; the
// returned engine has velocities and current forces. The traced run also
// gets the minimisation's seconds.
func mdSetup(seed uint64, kernelWorkers int, tr *tracer, parent int) (*md.Engine, *mdSystem, float64) {
	sp := tr.begin("topol.NewMyoglobinSystem", parent)
	sys := topol.NewMyoglobinSystem(topol.MyoglobinConfig{Seed: seed})
	tr.end(sp)
	cfg := md.PMEDefaultConfig()
	cfg.Temperature = 0 // heated after minimisation
	cfg.Seed = seed
	cfg.KernelWorkers = kernelWorkers
	e := md.NewEngine(sys, cfg)
	sp = tr.begin("md.Engine.Minimize", parent)
	e.Minimize(mdMinimizeSteps, 0.1)
	minS := tr.end(sp)
	e.InitVelocities(mdTemperatureK, seed)
	e.ComputeForces(nil, nil)
	return e, &mdSystem{seed: seed, sys: sys, cfg: cfg, nproc: kernelWorkers}, minS
}

// posDigest is the SHA-256 of positions as little-endian float64s.
func posDigest(pos []vec.V) string {
	h := sha256.New()
	var b [24]byte
	for _, p := range pos {
		binary.LittleEndian.PutUint64(b[0:], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(p.Y))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(p.Z))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func runMDSeq(o options, tr *tracer) (*report, error) {
	r := &report{layer: map[string]float64{}, params: map[string]interface{}{
		"atoms": 3552, "pme_mesh": "80x36x48", "minimize_steps": mdMinimizeSteps,
		"kernel_workers": o.nproc, "temperature_k": mdTemperatureK,
		"drift_bound": mdDriftBound,
	}}
	// Set-ups: the last one runs the timed phase, the one before it
	// replays its first steps for the determinism check. A traced run
	// builds the replay engine after the timed phase instead.
	if err := tr.startProfile(); err != nil {
		return nil, err
	}
	setups := o.setups
	var engines []*md.Engine
	var in *mdSystem
	var minimiseS float64
	for i := 0; i < setups; i++ {
		sp := tr.begin("setup", 0)
		t := time.Now()
		e, s, minS := mdSetup(o.seed, o.nproc, tr, sp)
		r.setupS = append(r.setupS, time.Since(t).Seconds())
		tr.end(sp)
		engines, in, minimiseS = append(engines, e), s, minS
	}
	setupDigests := map[string]bool{}
	for _, e := range engines {
		setupDigests[posDigest(e.Pos)] = true
	}
	if len(setupDigests) != 1 {
		r.fail("md-seq: %d set-ups gave %d different minimised positions", len(engines), len(setupDigests))
	}
	e := engines[len(engines)-1]

	var reg *obs.Registry
	var wc, wp work.Counters
	var pwc, pwp *work.Counters
	if tr != nil {
		reg = obs.NewRegistry()
		e.SetObs(reg)
		pwc, pwp = &wc, &wp
	}
	var energies []float64
	var rebuiltMS, reuseMS []float64
	var replayDigest string
	var ms0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	meter := startCPU()
	start := time.Now()
	for n := 0; n < mdMinTimedSteps || time.Since(start).Seconds() < o.seconds; n++ {
		sp := tr.begin("md.Engine.Step", 0)
		t := time.Now()
		rep := e.Step(pwc, pwp)
		d := sinceMS(t)
		tr.end(sp)
		r.opsMS = append(r.opsMS, d)
		energies = append(energies, rep.Total())
		if e.ListWasRebuilt() {
			rebuiltMS = append(rebuiltMS, d)
		} else {
			reuseMS = append(reuseMS, d)
		}
		if n+1 == mdReplaySteps {
			replayDigest = posDigest(e.Pos) // outside the step's timing
		}
	}
	wall := time.Since(start)
	r.cpuUtil = meter.util(o.nproc)
	r.peakRSSMB = peakRSSMB()
	steps := len(r.opsMS)
	r.attempted = steps
	if tr != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		tr.stopProfile()
		phase := func(p string) float64 {
			return reg.Value("repro_phase_seconds_total", obs.L("rank", "0"), obs.L("phase", p), obs.L("bucket", "compute"))
		}
		// SetObs and the counters were attached after the set-up's last
		// force evaluation, so they cover exactly the timed steps.
		rebuilds := float64(len(rebuiltMS))
		r.layer["md.step_ms.rebuild"] = median(rebuiltMS)
		r.layer["md.step_ms.reuse"] = median(reuseMS)
		r.layer["md.classic_ms"] = phase("classic") * 1e3 / float64(steps)
		r.layer["md.pme_ms"] = phase("pme") * 1e3 / float64(steps)
		r.layer["md.minimize_s"] = minimiseS
		r.layer["md.list_rebuilds"] = rebuilds
		r.layer["md.alloc_bytes_per_step"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(steps)
		r.layer["ff.pair_evals_per_step"] = float64(wc.PairEvals) / float64(steps)
		if rebuilds > 0 {
			r.layer["space.list_dist_evals_per_rebuild"] = float64(wc.ListDistEvals) / rebuilds
		}
		r.layer["ewald.grid_ops_per_step"] = float64(wp.GridCharges) / float64(steps)
		r.layer["fft.flops_per_step"] = float64(wp.FFTOps) / float64(steps)
		e.SetObs(nil)
		mdKernelReplays(e, in, r)
		r.layer["kernels.speedup"] = mdSpeedup(e, in, r)
	}
	r.params["timed_steps"] = steps
	r.params["timed_wall_s"] = wall.Seconds()
	r.params["list_rebuilds"] = len(rebuiltMS)

	// Checks, outside the timed phase: a second set-up replays the first
	// steps and must land on the same positions.
	var replay *md.Engine
	if len(engines) > 1 {
		replay = engines[len(engines)-2]
	} else {
		replay, _, _ = mdSetup(o.seed, o.nproc, nil, 0)
	}
	for i := 0; i < mdReplaySteps; i++ {
		replay.Step(nil, nil)
	}
	r.checks = append(r.checks, mdChecks(energies, replayDigest, posDigest(replay.Pos))...)
	r.params["positions_sha256_at_replay_step"] = replayDigest
	return r, nil
}

// mdChecks returns the failed md-seq checks: finite energies, the total
// energy within mdDriftBound of its start, and equal positions after the
// replayed steps.
func mdChecks(energies []float64, timedDigest, replayDigest string) []string {
	var out []string
	for i, en := range energies {
		if math.IsNaN(en) || math.IsInf(en, 0) {
			out = append(out, fmt.Sprintf("md-seq: non-finite total energy at step %d", i+1))
			break
		}
	}
	if d := energyDrift(energies); !(d <= mdDriftBound) {
		out = append(out, fmt.Sprintf("md-seq: total-energy fluctuation %.4g exceeds %.4g of |E0|", d, mdDriftBound))
	}
	if timedDigest != replayDigest {
		out = append(out, fmt.Sprintf("md-seq: positions after %d steps differ between set-ups", mdReplaySteps))
	}
	return out
}

// energyDrift returns max |E(t) − E(0)| / |E(0)|.
func energyDrift(es []float64) float64 {
	if len(es) == 0 {
		return 0
	}
	var worst float64
	for _, e := range es {
		worst = math.Max(worst, math.Abs(e-es[0]))
	}
	return worst / math.Abs(es[0])
}

// mdKernelReplays times the public kernel entry points on the run's own
// final positions, each with its own pool of nproc workers: pair-list
// build, nonbonded pair kernel, PME reciprocal sum, and one forward plus
// inverse real 3-D FFT on the PME mesh.
func mdKernelReplays(e *md.Engine, in *mdSystem, r *report) {
	pool := kernels.NewPool(in.nproc)
	pos := append([]vec.V(nil), e.Pos...)
	frc := make([]vec.V, len(pos))
	timeIt := func(fn func()) float64 {
		var ts []float64
		for i := 0; i < mdReplayReps; i++ {
			t := time.Now()
			fn()
			ts = append(ts, sinceMS(t))
		}
		return median(ts)
	}
	lister := e.FF.NewPairLister()
	pairs := lister.Build(pos, nil)
	r.layer["space.list_build_ms"] = timeIt(func() { pairs = lister.Build(pos, nil) })
	nbk := e.FF.NewNonbondedKernel()
	nbk.SetPool(pool)
	r.layer["ff.nonbonded_ms"] = timeIt(func() { nbk.Compute(pos, pairs, frc, nil) })
	pc := in.cfg.PME
	pme := ewald.NewPME(in.sys.Box, pc.Beta, pc.K1, pc.K2, pc.K3, pc.Order)
	pme.SetPool(pool)
	charges := e.FF.Charges()
	r.layer["ewald.recip_ms"] = timeIt(func() { pme.Recip(pos, charges, frc, nil) })
	plan, err := fft.NewRealPlan3D(pc.K1, pc.K2, pc.K3)
	if err != nil {
		r.fail("md-seq: fft plan: %v", err)
		return
	}
	plan.SetPool(pool)
	grid := make([]float64, plan.Len())
	for i := range grid {
		grid[i] = math.Sin(float64(i))
	}
	spec := make([]complex128, plan.SpectrumLen())
	r.layer["fft.fft3d_ms"] = timeIt(func() {
		plan.Forward(grid, spec)
		plan.Inverse(spec, grid)
	})
}

// mdSpeedup is the step time at one kernel worker over the step time at
// nproc workers, both engines restored from e's current state. The two
// must agree bitwise (pooled kernels are worker-count invariant).
func mdSpeedup(e *md.Engine, in *mdSystem, r *report) float64 {
	cp := e.Snapshot()
	stepMS := func(workers int) (float64, string) {
		cfg := in.cfg
		cfg.KernelWorkers = workers
		x := md.NewEngine(in.sys, cfg)
		if err := x.Restore(cp); err != nil {
			return 0, ""
		}
		x.ComputeForces(nil, nil)
		var ts []float64
		for i := 0; i < mdSpeedupSteps; i++ {
			t := time.Now()
			x.Step(nil, nil)
			ts = append(ts, sinceMS(t))
		}
		return median(ts), posDigest(x.Pos)
	}
	one, d1 := stepMS(1)
	n, dn := stepMS(in.nproc)
	if d1 != dn || n == 0 {
		r.fail("md-seq: engines at 1 and %d kernel workers diverged", in.nproc)
		return 0
	}
	return one / n
}
