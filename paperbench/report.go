package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	name, unit string
	value      float64
}

// metricSet keeps metrics in the order they were set.
type metricSet []metric

func (m *metricSet) set(name, unit string, v float64) {
	for i := range *m {
		if (*m)[i].name == name {
			(*m)[i] = metric{name, unit, v}
			return
		}
	}
	*m = append(*m, metric{name, unit, v})
}

// report is the outcome of one run.
type report struct {
	metrics    metricSet
	attempted  int
	failed     int
	violations []string
	// notes are the input properties and sample counts printed ahead of
	// the result line.
	notes []string
	// na lists metric-name prefixes of layers the workload does not run
	// through; their declared metrics read 0.
	na   []string
	host map[string]any
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// violate records a correctness-gate violation; each counts as a failed op.
func (r *report) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
	r.failed++
}

// check counts one correctness-gate check as attempted.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.violate(format, args...)
	}
}

func (r *report) notApplicable(name string) bool {
	for _, p := range r.na {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func (r *report) correct() bool { return len(r.violations) == 0 }

func (r *report) errorRate() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// timings is a set of per-op latencies.
type timings []float64

// add records one op's duration in milliseconds.
func (t *timings) add(d time.Duration) { *t = append(*t, float64(d.Nanoseconds())/1e6) }

// p90 returns the 90th percentile, interpolated between the two nearest
// ranks (0 for none).
func (t timings) p90() float64 {
	s := append([]float64(nil), t...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	x := 0.9 * float64(len(s)-1)
	i := int(x)
	if i+1 == len(s) {
		return s[i]
	}
	return s[i] + (x-float64(i))*(s[i+1]-s[i])
}

func (t timings) mean() float64 {
	if len(t) == 0 {
		return 0
	}
	var sum float64
	for _, v := range t {
		sum += v
	}
	return sum / float64(len(t))
}

// leastOf returns each op's cost: the least of its repeated CPU times.
// Ops never timed are left out.
func leastOf(perOp []timings) timings {
	var out timings
	for _, t := range perOp {
		if len(t) > 0 {
			out = append(out, slices.Min(t))
		}
	}
	return out
}

// summarize sets <prefix>_cpu_ms to the mean and <prefix>_tail_cpu_ms to
// the 90th percentile of the ops' costs (see leastOf), and notes the op
// count and the repetitions. The tail is over the workload's distinct ops,
// a few dozen to a few hundred, so it is a percentile of the op mix: a
// percentile of single timings would measure the neighbours' bursts.
func (r *report) summarize(prefix string, perOp []timings) {
	costs := leastOf(perOp)
	reps := 0
	for _, t := range perOp {
		reps += len(t)
	}
	r.metrics.set(prefix+"_cpu_ms", "ms", costs.mean())
	r.metrics.set(prefix+"_tail_cpu_ms", "ms", costs.p90())
	r.note("%s ops=%d timings=%d tail=p90 of ops", prefix, len(costs), reps)
}

// opsPerCPUSecond is how many ops of the given kinds one CPU-second
// completes, each at its cost (see leastOf).
func opsPerCPUSecond(kinds ...[]timings) float64 {
	var n int
	var total float64
	for _, perOp := range kinds {
		costs := leastOf(perOp)
		n += len(costs)
		total += costs.mean() * float64(len(costs))
	}
	return 1000 * ratio(float64(n), total)
}

// declared reads the metric names and units BENCHMARK.json declares for
// the mode, so the result line carries exactly those.
func declared(root string, traced bool) ([]metric, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %v", err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	out := make([]metric, len(list))
	for i, m := range list {
		out[i] = metric{name: m.Name, unit: m.Unit}
	}
	return out, nil
}

// write prints the notes, the host fingerprint and the result line, and
// keeps the full stamped report under .bench_build/results.
func (r *report) write(root, workload string, seed uint64, trace int) error {
	want, err := declared(root, trace == 1)
	if err != nil {
		return err
	}
	got := map[string]metric{}
	for _, m := range r.metrics {
		got[m.name] = m
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, w := range want {
		m, ok := got[w.name]
		if !ok && r.notApplicable(w.name) {
			m, ok = metric{w.name, w.unit, 0}, true
		}
		if !ok {
			return fmt.Errorf("metric %s declared in BENCHMARK.json was not measured", w.name)
		}
		if m.unit != w.unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", w.name, m.unit, w.unit)
		}
		out[w.name] = value{m.value, m.unit}
	}
	all := map[string]value{}
	for _, m := range r.metrics {
		all[m.name] = value{m.value, m.unit}
	}
	full, err := json.MarshalIndent(map[string]any{
		"workload": workload, "seed": seed, "trace": trace,
		"host": r.host, "notes": r.notes, "violations": r.violations,
		"attempted": r.attempted, "failed": r.failed, "metrics": all,
	}, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, trace)), full, 0o644); err != nil {
		return err
	}

	for _, n := range r.notes {
		fmt.Println("# " + n)
	}
	for _, v := range r.violations {
		fmt.Println("# violation: " + v)
	}
	host, err := json.Marshal(r.host)
	if err != nil {
		return err
	}
	fmt.Println("# host " + string(host))
	line, err := json.Marshal(map[string]any{
		"correct": r.correct(), "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// fingerprint stamps a result with the host and the code it measured: CPU
// model, CPU count, GOMAXPROCS, Go version, commit (or, outside a git
// checkout, a digest of the Go sources) and the store budget in force,
// plus calib, the host speed around the run (see calibrate).
func fingerprint(root string, calib []float64) map[string]any {
	commit := "none"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"cpu_model":        cpuModel(),
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"timed_gomaxprocs": timedPar,
		"go_version":       runtime.Version(),
		"goos_goarch":      runtime.GOOS + "/" + runtime.GOARCH,
		"commit":           commit,
		"source_sha256":    sourceDigest(root),
		"store_budget":     "unbounded",
		"host_calib_ms":    calib,
	}
}

// calibrate times a fixed loop of random increments over a 16 MiB table
// that uses no repository code. On a shared host its time moves with the
// neighbours' load, so a result that moved with it was the host's doing.
func calibrate() float64 {
	table := make([]uint32, 1<<22)
	x := uint64(1)
	t0 := time.Now()
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&(1<<22-1)]++
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every go.mod and .go file under root, skipping
// dot-directories (build output lives in .bench_build).
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (d.Name() == "go.mod" || strings.HasSuffix(d.Name(), ".go")) {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB returns the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%g", &kb)
			return kb / 1024
		}
	}
	return 0
}

// cpuTime returns the CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
