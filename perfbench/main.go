// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per invocation against the public packages (webworld, sim,
// sweep, serve, rtr, vrp) and the HTTP API, checks the outputs, and
// prints the metrics named in BENCHMARK.json as the last line of
// standard output:
//
//	perfbench --workload sweep-grid --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around every call into a layer and reports the
// per-layer metrics instead. See README.md for the design.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation's settings and its shared recorders.
type bench struct {
	seed    int64
	seconds time.Duration
	traced  bool
	out     string
	tr      *tracer // nil unless traced
}

// report is what a workload hands back: its operation counts, the
// metrics it measured (by BENCHMARK.json name), the problems its output
// checks found, and a digest of its deterministic output.
type report struct {
	attempted, failed int64
	problems          []string
	metrics           map[string]float64
	digest            string
	// notes are human-readable lines printed before the result.
	notes []string
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*bench) (*report, error){
	"sweep-grid":  runSweepGrid,
	"sim-steady":  runSimSteady,
	"serve-mixed": runServeMixed,
}

// specFile is the benchmark definition, at the root of the checkout the
// benchmark runs from.
const specFile = "BENCHMARK.json"

// spec mirrors the parts of BENCHMARK.json the binary reads: the metric
// names and units it must report.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: sweep-grid, sim-steady or serve-mixed")
		seed     = fs.Int64("seed", 1, "seed every input is derived from")
		seconds  = fs.Int("seconds", 15, "measurement time in seconds")
		trace    = fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
		out      = fs.String("out", ".bench_build", "directory for span files")
		loadgen  = fs.Bool("loadgen", false, "run as serve-mixed's load generator: job on stdin, report on stdout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *loadgen {
		return loadgenMain(os.Stdin, stdout)
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	raw, err := os.ReadFile(specFile)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("%s: %w", specFile, err)
	}

	b := &bench{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1, out: *out}
	if b.traced {
		b.tr = newTracer()
	}
	rep, err := fn(b)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	rep.metrics["mem_peak_mb"] = peakRSSMB()

	names := sp.EndToEnd
	if b.traced {
		path := filepath.Join(b.out, "spans-"+*workload+".jsonl")
		if err := b.tr.write(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(b.tr.spans), path)
		names = sp.PerLayer
	}
	res := result{Attempted: max(rep.attempted, 1), Failed: rep.failed, Metrics: map[string]metric{}}
	for _, m := range names {
		// A layer the workload never calls reports 0; an end-to-end
		// metric is never 0.
		v := rep.metrics[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (!b.traced && v <= 0) {
			rep.problem("metric %s not measured (%v)", m.Name, v)
			v = 0
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	if rep.attempted < 1 {
		rep.problem("no operation attempted")
	}
	res.Correct = len(rep.problems) == 0

	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	fmt.Fprintf(stdout, "digest %s seed=%d %s\n", *workload, b.seed, rep.digest)
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// --- shared helpers ----------------------------------------------------

// mix derives an independent seed from (seed, i): one splitmix64 round.
func mix(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// quantile returns the q-quantile of vs by linear interpolation between
// closest ranks; vs is sorted in place. NaN for an empty slice.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sort.Float64s(vs)
	pos := q * float64(len(vs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return vs[lo] + (vs[hi]-vs[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goStats brackets a measured window with runtime counters, for the go
// layer: bytes allocated, GC cycles and total stop-the-world pause.
type goStats struct{ start runtime.MemStats }

func startGoStats() *goStats {
	g := &goStats{}
	runtime.ReadMemStats(&g.start)
	return g
}

func (g *goStats) report(r *report) {
	g.add(r)
	r.note("go: %.0f MB allocated, %.0f GC cycles, %.3f ms GC pause in the measured window",
		r.metrics["go.alloc_mb"], r.metrics["go.gc_cycles"], r.metrics["go.gc_pause_ms"])
}

// add adds the counters' growth since start to the report's go metrics.
func (g *goStats) add(r *report) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	r.metrics["go.alloc_mb"] += float64(end.TotalAlloc-g.start.TotalAlloc) / (1 << 20)
	r.metrics["go.gc_cycles"] += float64(end.NumGC - g.start.NumGC)
	r.metrics["go.gc_pause_ms"] += float64(end.PauseTotalNs-g.start.PauseTotalNs) / 1e6
}

// digester folds output bytes into one printable fingerprint.
type digester struct{ h [32]byte }

func (d *digester) add(b []byte) {
	h := sha256.New()
	h.Write(d.h[:])
	h.Write(b)
	copy(d.h[:], h.Sum(nil))
}

func (d *digester) String() string { return hex.EncodeToString(d.h[:8]) }

func hexPrefix(sum [32]byte) string { return hex.EncodeToString(sum[:8]) }
