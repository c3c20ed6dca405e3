package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/figures"
)

// figure-study parameters: core.NewStudy on the paper protocol (its
// seeds are fixed, so the workload ignores --seed and its output bytes
// are pinned), then Study.All — what charmmbench -figure all runs.
// studyIDs is the figure order Study.All renders.
var studyIDs = []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "factorial", "effects", "ablation", "scalelimit"}

// goldenAllSHA256 pins the SHA-256 of Study.All's output per figure cell
// key version. A deliberate numeric change bumps figures.CellKeyVersion;
// under a version with no entry only the in-run checks apply.
var goldenAllSHA256 = map[int]string{
	2: "8e2334da0921fa4eb7c6a5eea97767a24f43c9737d39bc39abf49a3aee9b1ad0",
}

func runFigureStudy(o options, tr *tracer) (*report, error) {
	r := &report{layer: map[string]float64{}, params: map[string]interface{}{
		"protocol": "paper (10 steps, p in 1,2,4,8)", "workers": o.nproc, "kernel_workers": o.nproc,
		"cell_key_version": figures.CellKeyVersion,
	}}
	var study *core.Study
	if err := tr.startProfile(); err != nil {
		return nil, err
	}
	for i := 0; i < o.setups; i++ {
		sp := tr.begin("core.NewStudy", 0)
		t := time.Now()
		study = core.NewStudy(core.Options{Workers: o.nproc, KernelWorkers: o.nproc})
		r.setupS = append(r.setupS, time.Since(t).Seconds())
		r.layer["core.new_study_s"] = tr.end(sp)
	}
	var out bytes.Buffer
	meter := startCPU()
	t := time.Now()
	if tr == nil {
		if err := study.All(&out); err != nil {
			r.failed = len(studyIDs)
			r.fail("figure-study: Study.All: %v", err)
		}
	} else {
		// The same calls Study.All makes, one span per figure.
		sp := tr.begin("core.Study.All", 0)
		for _, id := range studyIDs {
			fs := tr.begin("core.Study.Figure "+id, sp)
			err := study.Figure(id, &out, core.FormatText)
			r.layer["figures.figure_s."+id] = tr.end(fs)
			if err != nil {
				r.failed++
				r.fail("figure-study: figure %s: %v", id, err)
			}
			fmt.Fprintln(&out)
		}
		tr.end(sp)
	}
	studyMS := sinceMS(t)
	r.cpuUtil = meter.util(o.nproc)
	r.peakRSSMB = peakRSSMB()
	tr.stopProfile()
	r.opsMS = []float64{studyMS}
	r.attempted = len(studyIDs)
	st := study.Stats()
	r.params["study_s"] = studyMS / 1e3
	r.params["run_stats"] = st
	if tr != nil {
		r.layer["figures.unique_runs"] = float64(st.Misses)
		r.layer["figures.cache_hits"] = float64(st.Hits)
		if st.Hits+st.Misses > 0 {
			r.layer["figures.cache_hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Misses)
		}
		r.layer["figures.tape_records"] = float64(st.TapeRecords)
		r.layer["figures.tape_replays"] = float64(st.TapeReplays)
	}

	// Checks, outside the timed phase.
	sum := sha256.Sum256(out.Bytes())
	r.params["output_sha256"] = hex.EncodeToString(sum[:])
	var again bytes.Buffer
	againErr := study.All(&again)
	rows, fig3Err := study.Suite.Fig3()
	r.checks = append(r.checks, figureChecks(out.Bytes(), again.Bytes(), againErr, rows, fig3Err,
		goldenAllSHA256[figures.CellKeyVersion])...)
	return r, nil
}

// figureChecks returns the failed figure-study checks: the output matches
// the pinned digest (when one exists for this cell key version),
// re-rendering from the warm run cache gives the same bytes, and finding
// F1 holds — PME at two processors is slower than at one.
func figureChecks(out, again []byte, againErr error, rows []figures.Fig3Row, fig3Err error, golden string) []string {
	var fails []string
	sum := sha256.Sum256(out)
	if digest := hex.EncodeToString(sum[:]); golden != "" && digest != golden {
		fails = append(fails, fmt.Sprintf("figure-study: output sha256 %s, want %s", digest, golden))
	}
	if againErr != nil || !bytes.Equal(again, out) {
		fails = append(fails, fmt.Sprintf("figure-study: re-rendering from the run cache changed the output (err %v)", againErr))
	}
	switch {
	case fig3Err != nil:
		fails = append(fails, fmt.Sprintf("figure-study: Fig3: %v", fig3Err))
	case len(rows) < 2 || rows[0].P != 1 || rows[1].P != 2:
		fails = append(fails, "figure-study: Fig3 rows do not start at p=1,2")
	case !(rows[1].PME > rows[0].PME):
		fails = append(fails, fmt.Sprintf("figure-study: F1 fails: PME(2)=%g not above PME(1)=%g", rows[1].PME, rows[0].PME))
	}
	return fails
}
