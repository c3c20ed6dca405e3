package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// endToEndUnits are the metrics of an untraced run; every workload
// prints all of them.
var endToEndUnits = map[string]string{
	"setup_s":     "s",
	"op_ms_p50":   "ms",
	"op_ms_tail":  "ms",
	"peak_rss_mb": "MB",
}

// perLayerUnits are the workload-specific metrics of a traced run. Every
// workload prints all of them; a metric of another workload reads 0.
// The host_s.* buckets, cpu_util and trace_overhead_frac are added by
// execute.
var perLayerUnits = map[string]string{
	// md-seq
	"md.step_ms.rebuild":                "ms",
	"md.step_ms.reuse":                  "ms",
	"md.classic_ms":                     "ms",
	"md.pme_ms":                         "ms",
	"md.minimize_s":                     "s",
	"md.list_rebuilds":                  "count",
	"md.alloc_bytes_per_step":           "B",
	"space.list_build_ms":               "ms",
	"ff.nonbonded_ms":                   "ms",
	"ewald.recip_ms":                    "ms",
	"fft.fft3d_ms":                      "ms",
	"ff.pair_evals_per_step":            "count",
	"space.list_dist_evals_per_rebuild": "count",
	"ewald.grid_ops_per_step":           "count",
	"fft.flops_per_step":                "count",
	"kernels.speedup":                   "x",
	// cluster-domain
	"pmd.setup_s":              "s",
	"pmd.setup_alloc_mb":       "MB",
	"pmd.step_alloc_mb":        "MB",
	"mpi.bytes_per_step":       "B",
	"mpi.collectives_per_step": "count",
	"sim.virtual_s_per_step":   "s",
	// figure-study
	"core.new_study_s":        "s",
	"figures.unique_runs":     "count",
	"figures.cache_hits":      "count",
	"figures.cache_hit_ratio": "frac",
	"figures.tape_records":    "count",
	"figures.tape_replays":    "count",
	// serve-mix
	"serve.admit_ms.fresh":        "ms",
	"serve.admit_ms.cached":       "ms",
	"serve.queue_ms":              "ms",
	"serve.exec_ms":               "ms",
	"serve.job_ms":                "ms",
	"serve.residual_ms":           "ms",
	"serve.workers_busy_frac":     "frac",
	"serve.backlog_max":           "count",
	"serve.accepted":              "count",
	"serve.cached":                "count",
	"serve.coalesced":             "count",
	"serve.shed":                  "count",
	"serve.store_hit_ratio":       "frac",
	"serve.generator_late_ms_p95": "ms",
}

func init() {
	for _, id := range studyIDs {
		perLayerUnits["figures.figure_s."+id] = "s"
	}
}

// provenance stamps a result with where and how it was taken.
func provenance(wl workload, o options, traced bool, r *report) map[string]interface{} {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]interface{}{
		"workload":      wl.name,
		"why":           wl.why,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         traced,
		"commit":        commit,
		"source_sha256": sourceDigest(),
		"go_version":    runtime.Version(),
		"nproc":         o.nproc,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"setups":        len(r.setupS),
		"op_samples":    len(r.opsMS),
		"op_ms_p90":     percentile(r.opsMS, 0.9),
		"params":        r.params,
	}
}

// sourceDigest hashes the checkout's Go sources and module files, so a
// result taken outside a git repository still names the code it ran.
func sourceDigest() string {
	root, err := filepath.Abs(".")
	if err != nil {
		return "unknown"
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		io.WriteString(h, rel+"\x00")
		if b, err := os.ReadFile(f); err == nil {
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
