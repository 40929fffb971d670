// Command perfbench is the privstats benchmark. It starts the real daemons
// in this process on loopback TCP (sumserver, the sumproxy aggregator and
// its shards, stockd, the sumjobd gateway and colstore-backed shards),
// drives them with two clients (a closed loop, or a fixed rate on the
// stocked workload), checks every result against a plaintext oracle, and prints every metric by name with its unit. The
// last line of its output is one JSON object.
//
//	perfbench -workload online-2048 -seed 1 -seconds 20 -trace 0
//
// -trace 0 reports the end-to-end metrics. -trace 1 probes every other op,
// reads the daemons' trace rings after a completion
// barrier, and reports the per-layer metrics along the paper's cost model:
// client encryption, upload, shard fold, aggregator combine, reply,
// decryption.
//
// State (fixtures, per-run daemon directories) lives under -state, which
// defaults to .bench_build/state in the working directory.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run stands its deployment up; setup_s is
// the median, and the last deployment is the one measured.
const setupReps = 5

type config struct {
	w      spec
	seed   int64
	window time.Duration
	traced bool
	state  string
	out    io.Writer // human-readable report lines
	// ops, when positive, ends each client's loop after that many ops
	// instead of at the end of the window (tests compare runs op for op).
	ops int
}

func main() {
	workload := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed for tables, selections and job specs")
	seconds := flag.Int("seconds", 20, "measurement window in seconds")
	traceFlag := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 the per-layer breakdown")
	state := flag.String("state", filepath.Join(".bench_build", "state"), "directory for fixtures and per-run daemon state")
	buildOnly := flag.Bool("build-fixture", false, "only build the workload's fixture, if missing")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	w, err := lookupWorkload(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := config{
		w:      w,
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		traced: *traceFlag == 1,
		state:  *state,
		out:    os.Stdout,
	}
	if *buildOnly {
		fx, err := loadFixture(fixtureDir(cfg), w)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s fixture ready (built in %v)\n", w.name, fx.genTime.Round(time.Millisecond))
		return
	}
	// Building a fixture swells a process (peak RSS, a large heap to
	// collect), so a missing one is built by a child process. The first run
	// in a state directory builds every workload's, so that no later run
	// pays for the stocked workload's stock.
	for _, fw := range workloads {
		if _, err := openFixture(fixtureDir(config{w: fw, state: cfg.state}), fw); err != nil {
			if err := buildInChild(fw, cfg.state); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: building the %s fixture: %v\n", fw.name, err)
				os.Exit(1)
			}
		}
	}
	st, err := run(context.Background(), cfg)
	if st != nil {
		res := st.result()
		if errors.Is(err, errWrong) {
			res.Correct = false
		}
		res.print(cfg.out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// buildInChild runs this binary with -build-fixture and waits for it.
func buildInChild(w spec, state string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "-workload", w.name, "-state", state, "-build-fixture")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	return cmd.Run()
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// run performs one benchmark run. It returns what was measured whenever
// the run got as far as measuring, also alongside a wrong-result error.
func run(ctx context.Context, cfg config) (*runStats, error) {
	w := cfg.w
	fx, err := loadFixture(fixtureDir(cfg), w)
	if err != nil {
		return nil, err
	}
	if fx.genTime > 0 {
		fmt.Fprintf(cfg.out, "fixture: built %s key and stock in %v (once per state directory)\n", w.name, fx.genTime.Round(time.Millisecond))
	}
	runDir := filepath.Join(cfg.state, "runs", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(runDir)

	var (
		e      *env
		setups []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", rep, err)
			}
			// Return the torn-down deployment's memory, so peak_rss_mb is one
			// deployment's peak rather than a sum of set-ups.
			debug.FreeOSMemory()
		}
		start := time.Now()
		if e, err = standUp(ctx, cfg, fx, filepath.Join(runDir, fmt.Sprint("setup", rep))); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	st := &runStats{w: w, traced: cfg.traced, setups: setups}
	if err := st.measure(ctx, e, cfg); err != nil {
		return st, err
	}
	st.maxRSS = peakRSS()
	return st, nil
}

func fixtureDir(cfg config) string { return filepath.Join(cfg.state, "fixtures", cfg.w.name) }

// standUp generates the seed's inputs, deploys the workload and warms it up.
func standUp(ctx context.Context, cfg config, fx *fixture, dir string) (*env, error) {
	in, err := makeInputs(cfg.w, cfg.seed)
	if err != nil {
		return nil, err
	}
	e, err := deploy(cfg.w, in, fx, dir, cfg.traced)
	if err != nil {
		return nil, err
	}
	if err := e.warm(ctx); err != nil {
		_ = e.close()
		return nil, err
	}
	return e, nil
}

// measure runs the measurement window on e and shuts e down.
func (st *runStats) measure(ctx context.Context, e *env, cfg config) error {
	closed := false
	defer func() {
		if !closed {
			_ = e.close()
		}
	}()
	if err := e.settle(10 * time.Second); err != nil {
		return err
	}
	// Collect the set-up's garbage now, not inside the window.
	runtime.GC()
	st.before = e.snapshot()
	cpu0, alloc0 := processCPU(), allocated()
	recs, elapsed, runErr := e.drive(ctx, cfg.window, cfg.ops, cfg.traced)
	st.cpu = processCPU() - cpu0
	st.alloc = allocated() - alloc0
	st.recs, st.elapsed = recs, elapsed

	// The graceful shutdown is the completion barrier: every session has
	// been accounted, every trace recorded, before anything is read.
	closed = true
	if err := e.close(); err != nil {
		return fmt.Errorf("shutting down: %w", err)
	}
	st.after = e.snapshot()
	if cfg.traced {
		st.daemon = e.collectTraces()
	}
	return runErr
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set in MB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// hostFacts describes the machine a result was measured on.
func hostFacts() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model)
}

// metric is one named measurement in the JSON result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line, plus the
// human-readable lines printed before it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	lines []string
}

func (r *result) print(out io.Writer) {
	for _, l := range r.lines {
		fmt.Fprintln(out, l)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(out, "metric %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	raw, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return
	}
	fmt.Fprintln(out, string(raw))
}
