package main

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// tracer instruments a traced run: it keeps spans in memory around the
// benchmark's calls into each layer and records a CPU profile of the
// whole traced pass. Both are written out by flush. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	t0       time.Time
	spanPath string
	profPath string
	prof     *os.File

	mu    sync.Mutex
	spans []span
}

// span is one timed call. Times are seconds since the tracer started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracedPackages are the layers host_s.<pkg> attributes CPU time to.
var tracedPackages = []string{
	"md", "ff", "space", "ewald", "fft", "kernels", "pmd", "sim",
	"mpi", "cmpi", "figures", "serve", "obs", "perf",
}

// Buckets for samples with no frame in tracedPackages: another
// repro/internal package, the benchmark's own code, or neither.
const (
	bucketInternalOther = "internal_other"
	bucketBench         = "bench"
	bucketRuntimeOther  = "runtime_other"
)

// newTracer makes a tracer whose spans and profile go to dir. The CPU
// profile starts when the workload calls startProfile.
func newTracer(dir, workload string, seed uint64) (*tracer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	return &tracer{t0: time.Now(), spanPath: base + ".spans.json", profPath: base + ".cpu.pprof"}, nil
}

// startProfile starts the CPU profile, so that host_s.* covers what the
// workload runs from here on; input the workload only prepares (such as
// cluster-domain's minimised state) stays out of it.
func (t *tracer) startProfile() error {
	if t == nil {
		return nil
	}
	f, err := os.Create(t.profPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	t.prof = f
	return nil
}

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// begin opens a span and returns its id (0 when untraced).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	s := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: s})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	e := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.End = e
	return sp.End - sp.Start
}

// stopProfile ends the CPU profile; flush calls it too, so calling it
// early just excludes the rest of the run (the correctness checks).
func (t *tracer) stopProfile() {
	if t == nil || t.prof == nil {
		return
	}
	pprof.StopCPUProfile()
	t.prof.Close()
	t.prof = nil
}

// flush stops profiling and writes the spans.
func (t *tracer) flush() error {
	t.stopProfile()
	t.mu.Lock()
	buf, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(t.spanPath, buf, 0o644)
}

// hostSeconds attributes the profile's CPU time to layers: each sample
// goes to its innermost frame in one of tracedPackages. The returned
// values sum to the profiled CPU seconds, which is returned too.
func (t *tracer) hostSeconds() (map[string]float64, float64) {
	out := map[string]float64{bucketInternalOther: 0, bucketBench: 0, bucketRuntimeOther: 0}
	for _, p := range tracedPackages {
		out[p] = 0
	}
	f, err := os.Open(t.profPath)
	if err != nil {
		return out, 0
	}
	defer f.Close()
	prof, err := parseProfile(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench: cpu profile:", err)
		return out, 0
	}
	var total float64
	for _, s := range prof.samples {
		sec := float64(s.cpuNanos) / 1e9
		out[prof.bucket(s.locs)] += sec
		total += sec
	}
	return out, total
}

// classify maps a fully qualified function name to its bucket.
func classify(fn string) (bucket string, internal, bench bool) {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/hostbench.") {
		return "", false, true
	}
	const pre = "repro/internal/"
	if !strings.HasPrefix(fn, pre) {
		return "", false, false
	}
	pkg := fn[len(pre):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	for _, p := range tracedPackages {
		if p == pkg {
			return p, true, false
		}
	}
	return "", true, false
}

// cpuProfile is the part of a pprof profile the attribution needs.
type cpuProfile struct {
	samples []cpuSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strs    []string
}

type cpuSample struct {
	locs     []uint64 // leaf first
	cpuNanos int64
}

// bucket walks a stack from the leaf outwards.
func (p *cpuProfile) bucket(locs []uint64) string {
	internal, bench := false, false
	for _, l := range locs {
		for _, fid := range p.locs[l] {
			name := ""
			if si := p.funcs[fid]; si >= 0 && int(si) < len(p.strs) {
				name = p.strs[si]
			}
			b, in, be := classify(name)
			if b != "" {
				return b
			}
			internal = internal || in
			bench = bench || be
		}
	}
	switch {
	case internal:
		return bucketInternalOther
	case bench:
		return bucketBench
	}
	return bucketRuntimeOther
}

// parseProfile decodes a gzipped pprof protobuf (profile.proto) far
// enough to attribute CPU samples: sample types, samples, locations with
// their inlined-function lines, functions and the string table.
func parseProfile(r io.Reader) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bufio.NewReader(r))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	var sampleTypes [][2]int64 // (type, unit) string indexes
	var rawSamples [][]byte
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case 2: // sample (decoded once the value layout is known)
			rawSamples = append(rawSamples, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id uint64
			name := int64(-1)
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cpuIdx := -1
	for i, vt := range sampleTypes {
		if vt[0] >= 0 && int(vt[0]) < len(p.strs) && p.strs[vt[0]] == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, fmt.Errorf("no cpu sample type")
	}
	for _, b := range rawSamples {
		var s cpuSample
		var vals []int64
		err := eachField(b, func(n, wire int, v uint64, pb []byte) error {
			switch n {
			case 1:
				return eachUint(wire, v, pb, func(x uint64) { s.locs = append(s.locs, x) })
			case 2:
				return eachUint(wire, v, pb, func(x uint64) { vals = append(vals, int64(x)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if cpuIdx < len(vals) {
			s.cpuNanos = vals[cpuIdx]
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// eachUint yields a repeated integer field, packed or not.
func eachUint(wire int, v uint64, b []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}

// eachField iterates the fields of one protobuf message. Varint fields
// arrive in v, length-delimited ones in b; fixed-width ones are skipped.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// record adds a span whose times were taken by the caller.
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
	return len(t.spans)
}
