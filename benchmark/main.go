// Command benchmark is the repository's performance benchmark: five named
// workloads, end-to-end metrics timed from outside the engine with tracing
// off, and a traced pass that attributes the time to layers. README.md in
// this directory is the glossary; BENCHMARK.json at the repository root
// names the metrics and their regression bounds.
//
// One invocation runs one workload in its own process:
//
//	bash benchmark/run.sh --workload ec-steady --seed 1 --seconds 15 --trace 0
//
// and prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	profile  string
	out      string
	traceDir string
}

// profile sizes the workloads. "full" is what BENCHMARK.json measures;
// "smoke" is a seconds-long pass through the same code for tests.
type profile struct {
	vertices, edges int
	nodes           int
	steadyIters     int
	failIters       int
	failAt          int
	serveIters      int
	serveFailAt     int
	detectN         int
	detectLossy     int
	detectCrashAt   int
	detectPeriods   int
	setupReps       int // graph builds (or detector constructions) behind setup_s
	minReps         int // measured repetitions even when --seconds is short
	probeScale      int // divisor on the micro-probe iteration counts
}

var profiles = map[string]profile{
	"full": {
		vertices: 64000, edges: 923000, nodes: 8,
		steadyIters: 30, failIters: 8, failAt: 4, serveIters: 30, serveFailAt: 15,
		detectN: 1024, detectLossy: 32, detectCrashAt: 6, detectPeriods: 40,
		setupReps: 7, minReps: 3, probeScale: 1,
	},
	"smoke": {
		vertices: 4000, edges: 40000, nodes: 8,
		steadyIters: 6, failIters: 8, failAt: 4, serveIters: 10, serveFailAt: 5,
		detectN: 64, detectLossy: 8, detectCrashAt: 6, detectPeriods: 40,
		setupReps: 2, minReps: 2, probeScale: 50,
	},
}

// result is the last line of standard output, with exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of an --out file: the result plus what is needed to
// compare runs later (which workload, seed and pass it was, on what host, and
// how many timings stand behind each median).
type record struct {
	Workload  string         `json:"workload"`
	Seed      uint64         `json:"seed"`
	Trace     int            `json:"trace"`
	Profile   string         `json:"profile"`
	Seconds   float64        `json:"seconds"`
	Nproc     int            `json:"nproc"`
	GoVersion string         `json:"go_version"`
	Reps      int            `json:"repetitions"`
	Samples   map[string]int `json:"samples"`
	// Timings holds every repetition's wall seconds behind the timed
	// metrics, so a noise question can be answered from the file.
	Timings map[string][]float64 `json:"timings"`
	result
}

func main() {
	os.Exit(mainExit(os.Args[1:], os.Stdout, os.Stderr))
}

func mainExit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	fs.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&opt.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&opt.seconds, "seconds", runSeconds, "how long the measured loop runs")
	fs.IntVar(&opt.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
	fs.StringVar(&opt.profile, "profile", "full", "workload sizes: full or smoke")
	fs.StringVar(&opt.out, "out", "", "append this run's record (JSON line) to `file`, the input of -compare")
	fs.StringVar(&opt.traceDir, "trace-dir", "", "with --trace 1, write the spans as Chrome trace-event JSON into `dir`")
	compare := fs.Bool("compare", false, "compare the record files given as arguments (one: spreads; two: verdicts)")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *printManifest:
		data, err := manifest()
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", data)
		return 0
	case *compare:
		worse, err := compareFiles(fs.Args(), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	rec, err := execute(opt, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if opt.out != "" {
		if err := appendRecord(opt.out, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// run is the state of one pass over one workload.
type run struct {
	opt    options
	prof   profile
	traced bool
	rec    *recorder // nil unless traced
	m      *metricSet
	stderr io.Writer

	attempted, failed int
	start             time.Time // when the run's measuring window opened
	reps              int
	setup             []float64 // setup_s samples, seconds
	timings           map[string][]float64
}

// failf counts one failed operation and says which, so a bad run can be
// replayed from the line alone.
func (r *run) failf(cell, format string, args ...any) {
	r.failed++
	fmt.Fprintf(r.stderr, "FAIL workload=%s seed=%d cell=%s: %s\n",
		r.opt.workload, r.opt.seed, cell, fmt.Sprintf(format, args...))
}

// openWindow starts the clock --seconds is counted on, unless it already
// runs. The traced pass opens it before its one-off probes (a job at full
// host parallelism, unloaded serve jobs), so they come out of the same budget
// and both passes take about as long.
func (r *run) openWindow() {
	if r.start.IsZero() {
		r.start = time.Now()
	}
}

// measure repeats body until the run's seconds are used up, and at least
// minReps times.
func (r *run) measure(body func(rep int)) {
	r.openWindow()
	for r.reps = 0; r.reps < r.prof.minReps || time.Since(r.start).Seconds() < r.opt.seconds; r.reps++ {
		body(r.reps)
	}
}

// execute runs one pass and assembles its record.
func execute(opt options, stderr io.Writer) (record, error) {
	prof, ok := profiles[opt.profile]
	if !ok {
		return record{}, fmt.Errorf("unknown profile %q", opt.profile)
	}
	if opt.trace != 0 && opt.trace != 1 {
		return record{}, fmt.Errorf("--trace must be 0 or 1, got %d", opt.trace)
	}
	r := &run{opt: opt, prof: prof, traced: opt.trace == 1, stderr: stderr, timings: map[string][]float64{}}
	if r.traced {
		r.rec = newRecorder()
		r.m = newMetricSet(perLayer)
	} else {
		r.m = newMetricSet(endToEnd)
	}

	// The batch workloads run the engine at host parallelism 1, so one OS
	// thread is all they can use; giving the Go runtime a second one only
	// adds cross-vCPU wake-ups, which on a shared two-vCPU host made the same
	// job 20% slower and its timings half again as noisy (README "Noise
	// policy"). serve-failover keeps both: its client and the engine run at
	// once.
	if opt.workload != "serve-failover" {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}

	var err error
	switch opt.workload {
	case "ec-steady", "vc-steady":
		err = r.steady(opt.workload == "vc-steady")
	case "failover-matrix":
		err = r.failoverMatrix()
	case "serve-failover":
		err = r.serveFailover()
	case "detect-1024":
		err = r.detect()
	default:
		err = fmt.Errorf("unknown workload %q (have %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	if err != nil {
		return record{}, err
	}

	if r.traced {
		r.m.set("job.unattributed_pct", unattributedPct(r.rec.spans, "job"))
		r.m.fillZero()
		if opt.traceDir != "" {
			name := opt.workload + "-seed" + strconv.FormatUint(opt.seed, 10) + ".trace.json"
			if err := r.rec.writeChrome(opt.traceDir, name); err != nil {
				return record{}, err
			}
		}
	} else {
		r.m.setMedian("setup_s", r.setup)
		r.timings["setup"] = r.setup
		r.m.set("peak_rss_mb", peakRSSMB())
		if miss := r.m.missing(); len(miss) > 0 {
			return record{}, fmt.Errorf("workload %s did not report %s", opt.workload, strings.Join(miss, ", "))
		}
	}
	if err := r.m.check(!r.traced); err != nil {
		return record{}, err
	}
	if r.attempted < 1 {
		return record{}, fmt.Errorf("workload %s attempted nothing", opt.workload)
	}
	return record{
		Workload: opt.workload, Seed: opt.seed, Trace: opt.trace, Profile: opt.profile,
		Seconds: opt.seconds, Nproc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Reps: r.reps, Samples: r.m.samples, Timings: r.timings,
		result: result{
			Correct:   r.failed == 0,
			Attempted: r.attempted,
			Failed:    r.failed,
			Metrics:   r.m.report(),
		},
	}, nil
}

// peakRSSMB reads the process's high-water resident set (VmHWM) in MB. Each
// workload runs in its own process, so this is the workload's peak.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encode record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("open %s: %w", path, err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
