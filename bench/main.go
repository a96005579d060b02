// Command bench is the repository's performance gate: it runs one named
// workload in one process, checks the answers against an oracle, and
// prints every metric by name with its unit. BENCHMARK.json at the
// repository root describes it; README.md in this directory explains
// the workloads, the metrics and how they interact.
//
//	sh bench/run.sh --workload scan_heavy --seed 1 --seconds 24 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with
// tracing off. With --trace 1 it replays the first ops of the same
// sequence twice each — the real call, then a staged replay through the
// layers' exported functions — and reports the per-layer metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupReps is how often an untraced run builds the system: set-up time
// is reported as the median, and the last build is the one measured.
const setupReps = 5

// watchdog is the hard limit on the whole run: past it the process
// removes its files and exits 1, so that nothing it started outlives it.
const watchdog = 170 * time.Second

// tracedOps is how many ops of the sequence a traced run replays.
const tracedOps = 100

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	tmp      string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runDir is the temporary directory of the run in progress; everything
// a run creates on disk lives under it. The watchdog and the signal path
// cannot rely on deferred calls, so they sweep it before exiting.
var runDir struct {
	sync.Mutex
	path string
}

func setRunDir(dir string) {
	runDir.Lock()
	defer runDir.Unlock()
	runDir.path = dir
}

// sweepRunDir removes the run's directory, if there is one.
func sweepRunDir() {
	runDir.Lock()
	defer runDir.Unlock()
	if runDir.path != "" {
		_ = os.RemoveAll(runDir.path) // best effort on the way out; a leftover shows up in the exit check
		runDir.path = ""
	}
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: scan_heavy, slice_heavy, template_sweep or serve_mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the table contents and the op sequence")
	flag.IntVar(&cfg.seconds, "seconds", 24, "nominal length of the timed phase; fixes the op count")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced replay")
	flag.BoolVar(&cfg.smoke, "smoke", false, "shrink the workload to test size")
	flag.StringVar(&cfg.tmp, "tmp", ".bench_build", "directory for the run's temporary files, removed on exit")
	flag.Parse()
	cfg.trace = trace != 0

	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "bench: watchdog: run exceeded %s\n", watchdog)
		sweepRunDir()
		os.Exit(1)
	})
	// SIGTERM/SIGINT cancel the run; ops observe the context. If the run
	// does not unwind promptly, exit anyway.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-ctx.Done()
		time.Sleep(5 * time.Second)
		fmt.Fprintln(os.Stderr, "bench: interrupted, run did not unwind; exiting")
		sweepRunDir()
		os.Exit(1)
	}()

	code := run(ctx, cfg, os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run executes one workload and prints its report; it returns the exit
// code. Everything it creates is gone when it returns.
func run(ctx context.Context, cfg config, stdout, stderr io.Writer) int {
	sp, ok := specByName(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(stderr, "bench: --seconds must be at least 1")
		return 2
	}
	if cfg.smoke {
		sp = sp.smoke()
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	// A run killed outright (SIGKILL) cannot remove its directory; the
	// next run in the checkout does. Runs in one checkout never overlap.
	if stale, err := filepath.Glob(filepath.Join(cfg.tmp, "run-*")); err == nil {
		for _, d := range stale {
			_ = os.RemoveAll(d) // best effort: a leftover only wastes disk
		}
	}
	dir, err := os.MkdirTemp(cfg.tmp, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	setRunDir(dir)
	defer sweepRunDir()
	fmt.Fprintf(stderr, "bench: workload=%s seed=%d seconds=%d trace=%t GOMAXPROCS=%d callers=%d\n",
		sp.name, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), sp.callers)
	var res *result
	if cfg.trace {
		// The spans outlive the run: they are its second output.
		res, err = runTraced(ctx, sp, cfg, dir, filepath.Join(cfg.tmp, "spans-"+sp.name+".jsonl"))
	} else {
		res, err = runTimed(ctx, sp, cfg, dir, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", sp.name, err)
		if res == nil {
			return 1
		}
	}
	report(stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints every metric by name with its unit, then the result
// object as the last line.
func report(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-32s %14d count\n%-32s %14d count\n", "ops_attempted", res.Attempted, "ops_failed", res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // a result holds only numbers, strings and bools
	}
	fmt.Fprintf(w, "%s\n", line)
}

// runTimed is the untraced run: build the system setupReps times, then
// drive the fixed op sequence closed-loop and report what a user sees.
func runTimed(ctx context.Context, sp spec, cfg config, dir string, stderr io.Writer) (*result, error) {
	n := opsPerSecond * cfg.seconds
	var s *sut
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	setups := make([]time.Duration, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		if s != nil {
			s.close()
			s = nil
		}
		// Every set-up starts where a process does: nothing live on the heap
		// and its pages back with the operating system, outside the clock.
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if s, err = setup(ctx, sp, cfg.seed, n, dir, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}
	fmt.Fprintf(stderr, "bench: ops=%d hash=%s\n", n, opsHash(s.ops))
	t0 := time.Now()
	if err := s.verify(ctx); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "bench: oracle agrees on %d warm-up ops (%.1fs)\n", len(s.warm), time.Since(t0).Seconds())
	// One forced collection between set-up and the timed phase. The memory
	// high-water mark so far belongs to the repeated set-ups and to the
	// oracle; hand their pages back and start it afresh, so that
	// peak_rss_mb is the system plus the timed ops.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintf(stderr, "bench: peak_rss_mb covers set-up and oracle too: %v\n", err)
	}

	timed := s.ops[sp.warmup:]
	lats := make([]time.Duration, len(timed))
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < sp.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(timed) {
					return
				}
				t0 := time.Now()
				_, err := s.do(ctx, timed[i], false)
				lats[i] = time.Since(t0)
				if err != nil {
					if failed.Add(1) == 1 {
						fmt.Fprintf(stderr, "bench: op %d (%s) failed: %v\n", i, timed[i], err)
					}
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &result{Attempted: len(timed), Failed: int(failed.Load())}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	_, finishErr := s.finish(ctx)
	sorted := sortedCopy(lats)
	res.Metrics = map[string]metric{
		"setup_s":     {medianSeconds(setups), "s"},
		"ops_per_s":   {float64(len(timed)) / wall.Seconds(), "1/s"},
		"op_p50_ms":   {millis(percentile(sorted, 50)), "ms"},
		"op_p95_ms":   {millis(percentile(sorted, 95)), "ms"},
		"peak_rss_mb": {rss, "MB"},
	}
	res.Correct = res.Failed == 0 && finishErr == nil
	return res, finishErr
}
