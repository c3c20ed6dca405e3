package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/md"
	"repro/internal/obs"
	"repro/internal/pmd"
	"repro/internal/serve"
	"repro/internal/topol"
)

// serve-mix parameters. One generator sends an open-loop Poisson stream
// at serveRate arrivals/s across three tenants. On a 2-vCPU host one
// seed still finished 98% and 99.7% of requests within
// serveLatencyLimitMS at 12 and 18 arrivals/s, so capacity is at least
// three times serveRate. The
// rate stays low because queueing and overlapping jobs amplify the
// host's own speed changes into latency spreads wider than the
// benchmark's bound (see README.md).
const (
	serveRate           = 6.0 // offered arrivals per second
	serveWarmSpecs      = 16  // finished specs the reads draw from
	serveLatencyLimitMS = 250 // slo_frac: share of sent requests done within this
	serveDrainTimeout   = 60 * time.Second
	// serveKernelWorkers is per job: nproc serve workers already fill the
	// cores when jobs overlap. With nproc kernel workers each, two
	// overlapping jobs ran 2·nproc kernel threads on nproc cores and
	// slowed each other, and ten seeds spread 0.29 at op_ms_tail; with
	// one, 0.10. Results are byte-identical for every value ≥ 1.
	serveKernelWorkers = 1
	serveSampleEvery   = 5 * time.Millisecond // traced: registry sampling period
)

// Of every 20 arrivals, in seeded order: serveReads repeat a spec
// finished in an earlier server lifetime, serveDups send a fresh spec
// twice, the second time serveDupLag later, while the first is in
// flight, and the rest send a fresh spec once.
const (
	serveReads  = 7
	serveDups   = 1
	serveFresh  = 20 - serveReads - serveDups
	serveDupLag = 5 * time.Millisecond
)

var serveTenants = []string{"alice", "bob", "carol"}

// serveAtoms are the box sizes. Boxes this large keep a job's physics
// (medians of 70 ms for sweeps, 94 ms for analyses and 92–135 ms for
// runs on a 2-vCPU host) well above the per-request costs that follow
// the disk's and the host's load — the fsyncs and goroutine hand-offs of
// admission, queue, execution and long-poll — so the latency follows the
// server's code more than its neighbours (see README.md).
var serveAtoms = []int{450, 500, 550}

// serveBox is one small solvated box; jobs on it share its relaxed system.
type serveBox struct {
	atoms int
	seed  uint64
	mesh  int
}

// serveBoxes derives the workload's three boxes from the seed.
func serveBoxes(seed uint64) []serveBox {
	var out []serveBox
	for i, atoms := range serveAtoms {
		s := seed*8 + uint64(i)
		_, mesh := topol.NewSolvatedBox(atoms, s+1) // the recipe serve.Env uses
		out = append(out, serveBox{atoms: atoms, seed: s, mesh: mesh})
	}
	return out
}

// specGen draws job specs on the boxes — runs, sweeps and analyses that
// vary steps, procs, network, middleware and decomposition — from seeded
// permutations of an enumerated space, so a stream has no repeats until a
// kind's space is used up (then it wraps, and the repeats are reads).
type specGen struct {
	rng   *rand.Rand
	pools [3][]serve.JobSpec // run, sweep, analysis
	next  [3]int
	kinds *deck
}

// deck deals seeded shuffles of a fixed multiset of choices, so every
// stretch of a stream holds the choices in their set proportions; only
// their order depends on the seed. Random draws would let the mix, and
// with it the latency percentiles, wander from seed to seed.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

// newDeck holds counts[i] cards of choice i.
func newDeck(rng *rand.Rand, counts ...int) *deck {
	d := &deck{rng: rng}
	for i, n := range counts {
		for ; n > 0; n-- {
			d.cards = append(d.cards, i)
		}
	}
	d.next = len(d.cards)
	return d
}

func (d *deck) deal() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

func newSpecGen(seed uint64, boxes []serveBox) *specGen {
	g := &specGen{rng: rand.New(rand.NewSource(int64(seed)))}
	g.kinds = newDeck(g.rng, 3, 2, 5) // run, sweep, analysis: loadgen's weights
	add := func(kind int, b serveBox, s serve.JobSpec) {
		s.Atoms, s.Seed = b.atoms, b.seed
		if s.Decomp != "" {
			dk, err := pmd.ParseDecomp(s.Decomp)
			mesh := md.PMEConfig{Beta: 0.34, K1: b.mesh, K2: b.mesh, K3: b.mesh, Order: 4}
			if err != nil || pmd.ValidateDecomp(dk, s.Procs, mesh) != nil {
				return
			}
		}
		if s.Normalize() == nil {
			g.pools[kind] = append(g.pools[kind], s)
		}
	}
	// Runs are the long jobs, as in loadgen's corpus. They make about a
	// quarter of the executed requests, so op_ms_tail (p87 in a 20 s
	// run) falls well inside them and the median inside the analyses,
	// not at the edge between two classes, where it would jump. Narrow
	// step ranges keep each class tight, so neither figure depends much
	// on which specs a seed draws.
	nets := []string{"tcp", "score", "myrinet", "fast"}
	netPairs := [][]string{{"tcp", "score"}, {"tcp", "myrinet"}, {"score", "myrinet"}}
	for _, b := range boxes {
		for _, decomp := range []string{"replicated", "domain"} {
			for _, net := range nets {
				for steps := 14; steps <= 16; steps++ {
					for _, procs := range []int{2, 4} {
						add(0, b, serve.JobSpec{Kind: serve.KindRun, Steps: steps, Procs: procs, Net: net, MW: "mpi", Decomp: decomp})
					}
				}
				// CMPI's synchronisation costs about three times MPI's
				// host time per step, so its runs take fewer steps.
				for steps := 7; steps <= 8; steps++ {
					add(0, b, serve.JobSpec{Kind: serve.KindRun, Steps: steps, Procs: 2, Net: net, MW: "cmpi", Decomp: decomp})
				}
			}
			for _, pair := range netPairs {
				for steps := 2; steps <= 2; steps++ {
					for _, procs := range []int{2, 4} {
						add(1, b, serve.JobSpec{Kind: serve.KindSweep, Steps: steps, Procs: procs, Nets: pair, MW: "mpi", Decomp: decomp})
					}
				}
			}
		}
		for steps := 12; steps <= 18; steps++ {
			for _, o := range []string{"rdf", "msd"} {
				add(2, b, serve.JobSpec{Kind: serve.KindAnalysis, Steps: steps, Observable: o})
			}
		}
	}
	for _, p := range g.pools {
		g.rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	}
	return g
}

// fresh returns the next spec: a run (30%), sweep (20%) or analysis
// (50%), loadgen's corpus weights.
func (g *specGen) fresh() serve.JobSpec {
	k := g.kinds.deal()
	s := g.pools[k][g.next[k]%len(g.pools[k])]
	g.next[k]++
	return s
}

// serveReq is one scheduled request and what happened to it.
type serveReq struct {
	due    time.Duration // offset from the start of the timed phase
	tenant string
	spec   serve.JobSpec

	sent, admitted, done time.Time
	code                 int
	id                   string
	status               string // final job status; "shed" for 429
	cached, coalesced    bool
	err                  error
}

// serveSchedule is the seeded open-loop arrival stream: a Poisson
// process at rate over seconds, conditioned on its expected count, which
// makes the arrival times sorted uniform draws. A fixed count keeps
// op_ms_tail at one quantile across seeds (it leaves ten of the executed
// requests beyond it); with a Poisson count that quantile moved with
// the count, and the tail with it.
func serveSchedule(seed uint64, seconds, rate float64, gen *specGen, warm []serve.JobSpec) []*serveReq {
	rng := rand.New(rand.NewSource(int64(seed)*7919 + 1))
	times := make([]float64, int(math.Round(rate*seconds)))
	for i := range times {
		times[i] = rng.Float64() * seconds
	}
	sort.Float64s(times)
	var out []*serveReq
	mix := newDeck(rng, serveReads, serveDups, serveFresh)
	for _, t := range times {
		q := &serveReq{due: time.Duration(t * float64(time.Second)), tenant: serveTenants[rng.Intn(len(serveTenants))]}
		switch mix.deal() {
		case 0:
			q.spec = warm[rng.Intn(len(warm))]
		case 1:
			// The client submits a fresh spec twice; the second POST
			// finds the first still in flight.
			q.spec = gen.fresh()
			out = append(out, q)
			q = &serveReq{due: q.due + serveDupLag, tenant: q.tenant, spec: q.spec}
		default:
			q.spec = gen.fresh()
		}
		out = append(out, q)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// serveClient is one HTTP connection to the server.
type serveClient struct {
	base string
	hc   *http.Client
}

func newServeClient(addr string) *serveClient {
	return &serveClient{base: "http://" + addr, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

type jobReply struct {
	ID        string `json:"id"`
	Status    string `json:"status"`
	Cached    bool   `json:"cached"`
	Coalesced bool   `json:"coalesced"`
}

func (c *serveClient) submit(tenant string, spec serve.JobSpec) (int, jobReply, error) {
	body, err := json.Marshal(map[string]interface{}{"tenant": tenant, "spec": spec})
	if err != nil {
		return 0, jobReply{}, err
	}
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, jobReply{}, err
	}
	defer resp.Body.Close()
	var jr jobReply
	err = json.NewDecoder(resp.Body).Decode(&jr)
	return resp.StatusCode, jr, err
}

// wait long-polls a job until it is terminal.
func (c *serveClient) wait(id string) (string, error) {
	for {
		resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "?wait=30s")
		if err != nil {
			return "", err
		}
		var jr jobReply
		err = json.NewDecoder(resp.Body).Decode(&jr)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		switch jr.Status {
		case serve.StatusDone, serve.StatusFailed, serve.StatusCanceled:
			return jr.Status, nil
		}
	}
}

func (c *serveClient) result(id string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("result %s: HTTP %d", id[:12], resp.StatusCode)
	}
	return b, err
}

func (c *serveClient) close() { c.hc.CloseIdleConnections() }

// serveLife is one open server with its state directory.
type serveLife struct {
	srv *serve.Server
	reg *obs.Registry
	dir string
}

// openServe runs nproc workers with serveKernelWorkers kernel workers each.
func openServe(dir string, nproc int) (*serveLife, error) {
	reg := obs.NewRegistry()
	srv, err := serve.Open(serve.Config{
		Addr: "127.0.0.1:0", StateDir: dir, Workers: nproc, KernelWorkers: serveKernelWorkers, Obs: reg,
	})
	if err != nil {
		return nil, err
	}
	return &serveLife{srv: srv, reg: reg, dir: dir}, nil
}

func (l *serveLife) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return l.srv.Close(ctx)
}

// runClosed submits specs with at most one outstanding and waits for each.
func runClosed(c *serveClient, specs []serve.JobSpec) error {
	for i, s := range specs {
		code, jr, err := c.submit(serveTenants[i%len(serveTenants)], s)
		if err != nil {
			return err
		}
		if code != http.StatusOK && code != http.StatusAccepted {
			return fmt.Errorf("warm-up submit: HTTP %d", code)
		}
		st, err := c.wait(jr.ID)
		if err != nil {
			return err
		}
		if st != serve.StatusDone {
			return fmt.Errorf("warm-up job %s ended %s", s.Key(), st)
		}
	}
	return nil
}

// serveSetup prepares one measured server: a first lifetime finishes the
// warm specs into the store and closes; the reopened server then relaxes
// each box with one small job. The reopened server is returned.
func serveSetup(dir string, nproc int, warm []serve.JobSpec, boxes []serveBox) (*serveLife, error) {
	first, err := openServe(dir, nproc)
	if err != nil {
		return nil, err
	}
	c := newServeClient(first.srv.Addr())
	err = runClosed(c, warm)
	c.close()
	if cerr := first.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	life, err := openServe(dir, nproc)
	if err != nil {
		return nil, err
	}
	var relax []serve.JobSpec
	for _, b := range boxes {
		relax = append(relax, serve.JobSpec{Kind: serve.KindAnalysis, Atoms: b.atoms, Seed: b.seed, Steps: 1, Observable: "rdf"})
	}
	c = newServeClient(life.srv.Addr())
	defer c.close()
	if err := runClosed(c, relax); err != nil {
		life.close()
		return nil, err
	}
	return life, nil
}

// histSumCount reads a histogram's sum and count from a registry.
func histSumCount(reg *obs.Registry, name string) (float64, uint64) {
	for _, p := range reg.Snapshot() {
		if p.Name == name {
			return p.Sum, p.Count
		}
	}
	return 0, 0
}

// serveSampler samples the server's busy-worker and queue-depth gauges
// during a traced run.
type serveSampler struct {
	busy, backlog []float64
	stop          chan struct{}
	done          sync.WaitGroup
}

func startSampler(reg *obs.Registry) *serveSampler {
	s := &serveSampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(serveSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				var depth float64
				for _, t := range serveTenants {
					depth += reg.Value("repro_serve_queue_depth", obs.L("tenant", t))
				}
				s.busy = append(s.busy, reg.Value("repro_serve_workers_busy"))
				s.backlog = append(s.backlog, depth)
			}
		}
	}()
	return s
}

func (s *serveSampler) finish() {
	close(s.stop)
	s.done.Wait()
}

func runServeMix(o options, tr *tracer) (*report, error) {
	return runServeMixAt(o, tr, serveRate)
}

// runServeMixAt runs serve-mix at the given offered rate in requests/s.
func runServeMixAt(o options, tr *tracer, rate float64) (*report, error) {
	boxes := serveBoxes(o.seed)
	gen := newSpecGen(o.seed, boxes)
	warm := make([]serve.JobSpec, serveWarmSpecs)
	for i := range warm {
		warm[i] = gen.fresh()
	}
	sched := serveSchedule(o.seed, o.seconds, rate, gen, warm)
	r := &report{layer: map[string]float64{}, params: map[string]interface{}{
		"offered_rate_per_s": rate, "latency_limit_ms": serveLatencyLimitMS, "tenants": len(serveTenants),
		"mix": fmt.Sprintf("of every 20 arrivals: %d read, %d fresh sent twice %v apart, %d fresh",
			serveReads, serveDups, serveDupLag, serveFresh),
		"warm_specs": serveWarmSpecs, "workers": o.nproc, "kernel_workers": serveKernelWorkers,
		"preempt_quantum": 0, "client_connections": 1 + o.nproc, "loop": "open",
		"boxes": fmt.Sprintf("%v", boxes),
	}}

	root, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("serve-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	var life *serveLife
	if err := tr.startProfile(); err != nil {
		return nil, err
	}
	for i := 0; i < o.setups; i++ {
		if life != nil {
			if err := life.close(); err != nil {
				return nil, err
			}
		}
		sp := tr.begin("serve.setup", 0)
		t := time.Now()
		l, err := serveSetup(filepath.Join(root, fmt.Sprint(i)), o.nproc, warm, boxes)
		if err != nil {
			return nil, fmt.Errorf("serve-mix: set-up: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(t).Seconds())
		tr.end(sp)
		life = l
	}
	defer life.close()

	sub := newServeClient(life.srv.Addr())
	defer sub.close()

	var sampler *serveSampler
	var jobSum0 float64
	var jobCount0 uint64
	var hits0, misses0 float64
	if tr != nil {
		jobSum0, jobCount0 = histSumCount(life.reg, "repro_serve_job_seconds")
		hits0 = life.reg.Value("repro_serve_store_hits_total")
		misses0 = life.reg.Value("repro_serve_store_misses_total")
		sampler = startSampler(life.reg)
	}
	// One watcher per server worker long-polls the oldest outstanding
	// jobs, each on its own connection, so a completion is seen when it
	// happens unless more jobs finish at once than there are workers. The
	// submitter never waits for completions.
	pending := make(chan *serveReq, len(sched))
	var wg sync.WaitGroup
	for w := 0; w < o.nproc; w++ {
		watch := newServeClient(life.srv.Addr())
		defer watch.close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range pending {
				q.status, q.err = watch.wait(q.id)
				q.done = time.Now()
			}
		}()
	}
	meter := startCPU()
	start := time.Now()
	for _, q := range sched {
		if d := time.Until(start.Add(q.due)); d > 0 {
			time.Sleep(d)
		}
		sp := tr.begin("serve.POST /v1/jobs", 0)
		q.sent = time.Now()
		var jr jobReply
		q.code, jr, q.err = sub.submit(q.tenant, q.spec)
		q.admitted = time.Now()
		tr.end(sp)
		q.id, q.cached, q.coalesced = jr.ID, jr.Cached, jr.Coalesced
		switch {
		case q.err != nil:
		case q.code == http.StatusOK && jr.Status == serve.StatusDone:
			q.status, q.done = serve.StatusDone, q.admitted
		case q.code == http.StatusAccepted:
			pending <- q
		case q.code == http.StatusTooManyRequests:
			q.status = "shed"
		default:
			q.err = fmt.Errorf("submit: HTTP %d", q.code)
		}
	}
	close(pending)
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(serveDrainTimeout):
		return nil, fmt.Errorf("serve-mix: jobs still running %s after the last request", serveDrainTimeout)
	}
	wall := time.Since(start)
	r.cpuUtil = meter.util(o.nproc)
	r.peakRSSMB = peakRSSMB()
	if sampler != nil {
		sampler.finish()
	}
	tr.stopProfile()

	var admitFresh, admitCached, lateMS, freshLat []float64
	var accepted, cached, coalesced, shed, met int
	for _, q := range sched {
		r.attempted++
		lateMS = append(lateMS, float64(q.sent.Sub(start.Add(q.due)).Nanoseconds())/1e6)
		if q.err != nil || (q.status != serve.StatusDone && q.status != "shed") {
			r.failed++
			continue
		}
		if q.status == "shed" {
			shed++
			continue
		}
		// Every sent request counts towards slo_frac; the latency percentiles
		// are over the requests the server executed (fresh and
		// coalesced), since a cached read completes inside admission —
		// its time is serve.admit_ms.cached.
		lat := float64(q.done.Sub(start.Add(q.due)).Nanoseconds()) / 1e6
		if lat <= serveLatencyLimitMS {
			met++
		}
		admit := float64(q.admitted.Sub(q.sent).Nanoseconds()) / 1e6
		switch {
		case q.cached:
			cached++
			admitCached = append(admitCached, admit)
			continue
		case q.coalesced:
			coalesced++
		default:
			accepted++
			admitFresh = append(admitFresh, admit)
			freshLat = append(freshLat, lat)
		}
		r.opsMS = append(r.opsMS, lat)
	}
	r.params["timed_wall_s"] = wall.Seconds()
	r.params["spec_space"] = fmt.Sprintf("run %d, sweep %d, analysis %d", len(gen.pools[0]), len(gen.pools[1]), len(gen.pools[2]))
	r.params["requests"] = len(sched)
	r.params["completed"] = len(r.opsMS)
	if len(sched) > 0 {
		r.params["slo_frac"] = float64(met) / float64(len(sched))
	}
	r.params["generator_late_ms_p95"] = percentile(lateMS, 0.95)
	if tr != nil {
		jobSum1, jobCount1 := histSumCount(life.reg, "repro_serve_job_seconds")
		jobMS := 0.0
		if jobCount1 > jobCount0 {
			jobMS = (jobSum1 - jobSum0) / float64(jobCount1-jobCount0) * 1e3
		}
		// Little's law: mean queued jobs over the accepted-job rate.
		queueMS := 0.0
		if accepted > 0 {
			queueMS = mean(sampler.backlog) / (float64(accepted) / wall.Seconds()) * 1e3
		}
		execMS := jobMS - queueMS
		hits := life.reg.Value("repro_serve_store_hits_total") - hits0
		misses := life.reg.Value("repro_serve_store_misses_total") - misses0
		r.layer["serve.admit_ms.fresh"] = median(admitFresh)
		r.layer["serve.admit_ms.cached"] = median(admitCached)
		r.layer["serve.queue_ms"] = queueMS
		r.layer["serve.exec_ms"] = execMS
		r.layer["serve.job_ms"] = jobMS
		r.layer["serve.residual_ms"] = mean(freshLat) - mean(admitFresh) - jobMS
		r.layer["serve.workers_busy_frac"] = mean(sampler.busy) / float64(o.nproc)
		r.layer["serve.backlog_max"] = maxOf(sampler.backlog)
		r.layer["serve.accepted"] = float64(accepted)
		r.layer["serve.cached"] = float64(cached)
		r.layer["serve.coalesced"] = float64(coalesced)
		r.layer["serve.shed"] = float64(shed)
		if hits+misses > 0 {
			r.layer["serve.store_hit_ratio"] = hits / (hits + misses)
		}
		r.layer["serve.generator_late_ms_p95"] = percentile(lateMS, 0.95)
	}

	// Checks, outside the timed phase: every completed payload equals a
	// direct computation of its spec.
	ids := map[string]serve.JobSpec{}
	for _, q := range sched {
		if q.status == serve.StatusDone {
			ids[q.id] = q.spec
		}
	}
	keys := make([]string, 0, len(ids))
	for id := range ids {
		keys = append(keys, id)
	}
	sort.Strings(keys)
	got := map[string][]byte{}
	for _, id := range keys {
		b, err := sub.result(id)
		if err != nil {
			r.fail("serve-mix: %v", err)
			continue
		}
		got[id] = b
	}
	env := serve.NewEnv()
	env.KernelWorkers = o.nproc
	r.checks = append(r.checks, payloadChecks(env, ids, got, o.nproc)...)
	r.params["distinct_results_checked"] = len(keys)
	return r, nil
}

// payloadChecks compares every served payload with a direct computation
// of its spec on env, over n goroutines, and returns the mismatches.
func payloadChecks(env *serve.Env, specs map[string]serve.JobSpec, got map[string][]byte, n int) []string {
	ids := make([]string, 0, len(got))
	for id := range got {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var fails []string
	for _, msg := range parallelMap(ids, n, func(id string) string {
		want, err := env.ComputeReference(specs[id])
		if err != nil {
			return fmt.Sprintf("serve-mix: reference for %s: %v", specs[id].Key(), err)
		}
		if !bytes.Equal(got[id], want) {
			return fmt.Sprintf("serve-mix: served result for %s differs from the direct computation", specs[id].Key())
		}
		return ""
	}) {
		if msg != "" {
			fails = append(fails, msg)
		}
	}
	return fails
}

// parallelMap applies fn to every item on n goroutines, results in order.
func parallelMap(items []string, n int, fn func(string) string) []string {
	out := make([]string, len(items))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = fn(items[i])
			}
		}()
	}
	for i := range items {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}
