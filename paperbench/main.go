// Command paperbench is the repository's end-to-end benchmark. It runs one
// named paper workload through the public API of each layer (core, conn,
// worldstore, sampler, shard, server) and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash paperbench/run.sh --workload fig3-ppi --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with no
// attribution in the path. With --trace 1 it first repeats the untraced
// measurement for half the time, then measures the per-layer metrics from
// outside: a timing decorator around the oracle handed to core, store
// counter deltas, and replays of the recorded calls through the worldstore,
// sampler and shard entry points. The traced half also writes a CPU profile
// under .bench_build/profiles.
//
// A timed loop repeats a fixed set of ops (a pass, or in serve-sharded a
// request cycle) until the time is up, one op at a time on one P. An op's
// cost is the least CPU time the process spent on it over its
// repetitions; the *_cpu_ms metrics are means and tails of those costs.
//
// Every input (graphs, k lists, candidate-selection seeds, center streams) is derived
// from --seed. Every run checks its outputs through a correctness gate; a
// violation sets "correct" to false and the exit code to 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// workload is one named benchmark input set; BENCHMARK.json records why
// each was chosen.
type workload struct {
	name string
	run  func(ctx context.Context, cfg runConfig) (*report, error)
}

var workloads = []workload{
	{"fig3-ppi", runFig3},
	{"serve-sharded", runServe},
}

// runConfig carries the command-line settings into a workload.
type runConfig struct {
	seed    uint64
	seconds float64
	traced  bool
	// run names this run; out is the .bench_build directory.
	run, out string
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed; every input is derived from it")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 measures the per-layer metrics, 0 the end-to-end metrics")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "paperbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(2)
	}
	run := fmt.Sprintf("%s-%d-%d", wl.name, *seed, os.Getpid())
	out := filepath.Join(root, ".bench_build")
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, run: run, out: out}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	calib := []float64{calibrate()}
	rep, err := wl.run(ctx, cfg)
	cancel()
	calib = append(calib, calibrate())
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", wl.name, err)
		os.Exit(2)
	}
	rep.host = fingerprint(root, calib)
	rep.metrics.set("bench.error_rate", "ratio", rep.errorRate())
	if err := rep.write(root, wl.name, *seed, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(2)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// repoRoot returns the directory the benchmark runs from: the repository
// root, recognised by the go.mod of module ucgraph.
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	b, err := os.ReadFile(filepath.Join(wd, "go.mod"))
	if err != nil || !strings.HasPrefix(string(b), "module ucgraph\n") {
		return "", fmt.Errorf("run from the repository root (no go.mod of module ucgraph in %s)", wd)
	}
	return wd, nil
}

// profiled runs fn under a CPU profile written to
// .bench_build/profiles/<run>.pprof, and notes the path. The benchmark
// labels its samples bench=op (the measured calls, and the goroutines they
// start) or bench=replay.
func profiled(cfg runConfig, rep *report, fn func()) error {
	dir := filepath.Join(cfg.out, "profiles")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, cfg.run+".pprof")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	fn()
	pprof.StopCPUProfile()
	rep.note("cpu profile %s (go tool pprof -tagfocus=bench=op -top)", path)
	return nil
}

// onOneP runs a timed loop on one P: the loop runs one op at a time on
// one worker and times it in CPU time (see phase). A second P would only
// add scheduler spinning to that time, and on a shared host of a few
// vCPUs parallel speedup would measure the neighbours, not the program.
// Set-up and the checks after a loop run on every CPU.
func onOneP(fn func()) {
	prev := runtime.GOMAXPROCS(timedPar)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// settle returns freed memory to the OS between set-ups, so the peak
// resident size of one set-up is not inflated by the garbage of the last.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
