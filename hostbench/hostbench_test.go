package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/figures"
	"repro/internal/md"
	"repro/internal/netmodel"
	"repro/internal/pmd"
	"repro/internal/serve"
	"repro/internal/topol"
)

type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func declared(t *testing.T, what string, decl []struct{ Name, Unit string }, printed map[string]string) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range decl {
		seen[m.Name] = true
		if u, ok := printed[m.Name]; !ok {
			t.Errorf("%s metric %q is declared but never printed", what, m.Name)
		} else if u != m.Unit {
			t.Errorf("%s metric %q: printed unit %q, declared %q", what, m.Name, u, m.Unit)
		}
	}
	for name := range printed {
		if !seen[name] {
			t.Errorf("%s metric %q is printed but not declared in BENCHMARK.json", what, name)
		}
	}
}

// tracedMetricUnits lists every metric a traced run prints.
func tracedMetricUnits() map[string]string {
	out := map[string]string{"host_s.profiled": "s", "cpu_util": "frac", "trace_overhead_frac": "frac"}
	for k, v := range perLayerUnits {
		out[k] = v
	}
	for _, p := range append(append([]string(nil), tracedPackages...), bucketInternalOther, bucketBench, bucketRuntimeOther) {
		out["host_s."+p] = "s"
	}
	return out
}

// Every printed metric is declared in BENCHMARK.json with its unit, and
// every declared metric is printed.
func TestMetricsDeclared(t *testing.T) {
	b := readBenchFile(t)
	e2e := map[string]string{}
	for k, m := range endToEnd(&report{attempted: 1}) {
		e2e[k] = m.Unit
	}
	declared(t, "end-to-end", b.EndToEnd, e2e)
	declared(t, "per-layer", b.PerLayer, tracedMetricUnits())
	for i, w := range b.Workloads {
		if i >= len(workloads) || w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, not the benchmark's workload in that place", i, w.Name)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0.5, 3}, {0.95, 5}, {0.2, 1}, {0.4, 2}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
	for n, want := range map[int]float64{1: 0.5, 20: 0.5, 40: 0.75, 200: 0.95, 1000: 0.95} {
		if got := tailQuantile(n); math.Abs(got-want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestMDChecksCatchPerturbation(t *testing.T) {
	es := []float64{-1000, -1000.5, -999.7, -1000.2}
	if f := mdChecks(es, "a", "a"); len(f) != 0 {
		t.Fatalf("clean output failed: %v", f)
	}
	nan := append([]float64(nil), es...)
	nan[2] = math.NaN()
	drift := append([]float64(nil), es...)
	drift[3] = -1000 * (1 + 2*mdDriftBound)
	for name, f := range map[string][]string{
		"non-finite energy": mdChecks(nan, "a", "a"),
		"energy drift":      mdChecks(drift, "a", "a"),
		"position digest":   mdChecks(es, "a", "b"),
	} {
		if len(f) == 0 {
			t.Errorf("%s: perturbed output passed", name)
		}
	}
}

// tinySystem is a relaxed 48-atom water box with the serve recipe.
func tinySystem() (*topol.System, md.Config) {
	sys, mesh := topol.NewSolvatedBox(48, 2)
	md.Relax(sys, 10)
	cfg := md.ClampCutoffs(md.PMEDefaultConfig(), sys.Box)
	cfg.PME = md.PMEConfig{Beta: 0.34, K1: mesh, K2: mesh, K3: mesh, Order: 4}
	cfg.FF.Beta = cfg.PME.Beta
	cfg.Temperature = 300
	cfg.KernelWorkers = 2
	return sys, cfg
}

func TestClusterChecksCatchPerturbation(t *testing.T) {
	sys, cfg := tinySystem()
	run := func(decomp pmd.DecompKind, steps int) *pmd.Result {
		res, err := pmd.Run(cluster.Config{Nodes: 2, CPUsPerNode: 1, Net: netmodel.TCPGigE(), Seed: 1},
			cluster.PentiumIII1GHz(), pmd.Config{System: sys, MD: cfg, Steps: steps, Decomp: decomp, HostWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	probe, main := run(pmd.DecompDomain, 2), run(pmd.DecompDomain, 3)
	rep, dom := run(pmd.DecompReplicated, 3), run(pmd.DecompDomain, 3)
	seq := md.NewEngine(sys, cfg).Run(3, nil, nil)
	if f := clusterChecks([]*pmd.Result{probe}, main, rep, dom, seq); len(f) != 0 {
		t.Fatalf("clean runs failed: %v", f)
	}
	bumped := func(r *pmd.Result) *pmd.Result {
		c := *r
		c.Energies = append([]md.EnergyReport(nil), r.Energies...)
		c.Energies[1].Recip = math.Nextafter(c.Energies[1].Recip, math.Inf(1))
		return &c
	}
	farSeq := append([]md.EnergyReport(nil), seq...)
	farSeq[2].Kinetic *= 1.01
	for name, f := range map[string][]string{
		"set-up run":        clusterChecks([]*pmd.Result{bumped(probe)}, main, rep, dom, seq),
		"domain≠replicated": clusterChecks(nil, main, rep, bumped(dom), seq),
		"sequential":        clusterChecks(nil, main, rep, dom, farSeq),
	} {
		if len(f) == 0 {
			t.Errorf("%s: perturbed output passed", name)
		}
	}
}

func TestFigureChecksCatchPerturbation(t *testing.T) {
	out := []byte("figure 3\nrows\n")
	sum := sha256.Sum256(out)
	golden := hex.EncodeToString(sum[:])
	rows := []figures.Fig3Row{{P: 1, Classic: 2, PME: 1}, {P: 2, Classic: 1, PME: 1.2}}
	if f := figureChecks(out, out, nil, rows, nil, golden); len(f) != 0 {
		t.Fatalf("clean output failed: %v", f)
	}
	flipped := append([]byte(nil), out...)
	flipped[0] ^= 1
	noF1 := []figures.Fig3Row{{P: 1, Classic: 2, PME: 1}, {P: 2, Classic: 1, PME: 0.9}}
	for name, f := range map[string][]string{
		"golden digest":   figureChecks(flipped, flipped, nil, rows, nil, golden),
		"cache re-render": figureChecks(out, flipped, nil, rows, nil, golden),
		"finding F1":      figureChecks(out, out, nil, noF1, nil, golden),
	} {
		if len(f) == 0 {
			t.Errorf("%s: perturbed output passed", name)
		}
	}
}

func TestPayloadChecksCatchPerturbation(t *testing.T) {
	env := serve.NewEnv()
	env.KernelWorkers = 2
	spec := serve.JobSpec{Kind: serve.KindAnalysis, Atoms: 48, Steps: 2, Seed: 3, Observable: "rdf"}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	ref, err := env.ComputeReference(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := serve.JobID(spec.Key())
	specs := map[string]serve.JobSpec{id: spec}
	if f := payloadChecks(env, specs, map[string][]byte{id: ref}, 2); len(f) != 0 {
		t.Fatalf("clean payload failed: %v", f)
	}
	bad := append([]byte(nil), ref...)
	bad[len(bad)/2] ^= 1
	if f := payloadChecks(env, specs, map[string][]byte{id: bad}, 2); len(f) == 0 {
		t.Error("perturbed payload passed")
	}
}

// A served run end to end at a tiny rate: the set-up, the stream and the
// payload check all hold.
func TestServeMixTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server")
	}
	dir := t.TempDir()
	wd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	r, err := runServeMixAt(options{seed: 5, seconds: 1, setups: 1, nproc: 2}, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.checks) != 0 || r.failed != 0 || r.attempted == 0 || len(r.opsMS) == 0 {
		t.Fatalf("checks %v, failed %d of %d, %d latencies", r.checks, r.failed, r.attempted, len(r.opsMS))
	}
}

func TestServeScheduleDeterministic(t *testing.T) {
	sched := func(seed uint64) []string {
		gen := newSpecGen(seed, serveBoxes(seed))
		warm := []serve.JobSpec{gen.fresh(), gen.fresh()}
		var out []string
		for _, q := range serveSchedule(seed, 2, 20, gen, warm) {
			out = append(out, q.due.String()+" "+q.tenant+" "+q.spec.Key())
		}
		return out
	}
	a, b, c := sched(4), sched(4), sched(5)
	// 40 arrivals whatever the seed: two deals of the mix deck, each
	// sending serveDups fresh specs twice.
	if want := 40 + 2*serveDups; len(a) != want || len(b) != want || len(c) != want {
		t.Fatalf("schedule lengths %d, %d and %d, want %d", len(a), len(b), len(c), want)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs under one seed: %q vs %q", i, a[i], b[i])
		}
	}
	if a[0] == c[0] {
		t.Error("different seeds gave the same stream")
	}
}

func TestClassify(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/mpi.(*Rank).Allreduce":     "mpi",
		"repro/internal/kernels.(*Pool).Run.func1": "kernels",
		"repro/internal/vec.Dist2":                 "",
		"main.runMDSeq":                            "",
		"runtime.chansend":                         "",
	} {
		if got, _, _ := classify(fn); got != want {
			t.Errorf("classify(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) float64 {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	return x
}

// The profile decoder sees the samples the runtime wrote, the layer
// buckets add up to the profiled total, and work done before
// startProfile stays out of it.
func TestHostSecondsSumToProfile(t *testing.T) {
	tr, err := newTracer(t.TempDir(), "test", 1)
	if err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond) // input preparation: not profiled
	if err := tr.startProfile(); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	if err := tr.flush(); err != nil {
		t.Fatal(err)
	}
	hs, total := tr.hostSeconds()
	if total <= 0 {
		t.Fatal("no CPU samples decoded")
	}
	if total > 0.45 {
		t.Errorf("profile holds %v CPU s, more than the 0.3 s spun after startProfile", total)
	}
	var sum float64
	for _, s := range hs {
		sum += s
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Fatalf("buckets sum to %v, profile total %v", sum, total)
	}
	if hs[bucketBench] < total/2 {
		t.Errorf("the benchmark's own spin got %v of %v s", hs[bucketBench], total)
	}
	if len(hs) != len(tracedPackages)+3 {
		t.Errorf("%d buckets, want %d", len(hs), len(tracedPackages)+3)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile(bytes.NewReader([]byte("not a profile"))); err == nil {
		t.Error("garbage parsed")
	}
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := parseProfile(&buf); err == nil {
		t.Error("a profile without cpu samples parsed")
	}
}

// Every full deal of a deck holds each choice in its set proportion.
func TestDeckKeepsProportions(t *testing.T) {
	d := newDeck(rand.New(rand.NewSource(3)), serveReads, serveDups, serveFresh)
	for round := 0; round < 5; round++ {
		var n [3]int
		for i := 0; i < 20; i++ {
			n[d.deal()]++
		}
		if n != [3]int{serveReads, serveDups, serveFresh} {
			t.Fatalf("deal %d: counts %v", round, n)
		}
	}
}
