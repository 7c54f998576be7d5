// Command wspbench is the repository benchmark. It drives the WSP pipeline
// from outside, through its public entry points (wsp.Solver.Solve and a
// served wspd instance), on one of three workloads:
//
//	tablei-route     the nine Table I route-packing solves, closed loop
//	corpus-contract  the seeded scenario corpus under ContractILP, float
//	                 and exact, closed loop
//	wspd-open        an in-process wspd under an open-loop request mix at
//	                 two fixed rates
//
// An untraced run (--trace 0) prints the end-to-end metrics. A traced run
// (--trace 1) replays the workload through each layer's public functions
// with spans recorded in this package, and prints the per-layer metrics.
// The last line of standard output is one JSON object; README.md lists
// every metric and the layer table it belongs to.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg runConfig) (*report, error){
	"tablei-route":    runTableI,
	"corpus-contract": runCorpus,
	"wspd-open":       runWSPD,
}

// setupRepeats is how many times each workload sets itself up; setup_s is
// the median, so one slow set-up does not move it.
const setupRepeats = 9

type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back: the printed JSON result plus the
// human-readable lines printed above it.
type report struct {
	attempted int
	failed    int
	metrics   map[string]metric
	notes     []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records one failed operation with its reason.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 20 {
		r.note("FAIL: "+format, args...)
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: tablei-route, corpus-contract or wspd-open")
	seed := flag.Int64("seed", 1, "workload seed (drives the corpus and the request schedule)")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: wspbench --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	printHeader(*workload, *seed, *seconds, *trace)
	rss = startRSSMeter()
	rep, err := run(runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1})
	rss.close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "wspbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	rep.note("resident set: median one-second peak %.2f MB over %d s; all-time peak (VmHWM) %.2f MB",
		rss.peakMB(), len(rss.peaks), hwmMB())
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	out, err := json.Marshal(result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "wspbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printHeader prints the run's environment, so a figure can be tied to the
// machine and the code that produced it.
func printHeader(workload string, seed int64, seconds float64, trace int) {
	commit := os.Getenv("WSPBENCH_COMMIT")
	if commit == "" {
		commit = "none"
	}
	fmt.Printf("wspbench workload=%s seed=%d seconds=%g trace=%d\n", workload, seed, seconds, trace)
	fmt.Printf("nproc=%d GOMAXPROCS=%d go=%s commit=%s src=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, sourceDigest())
}

// sourceDigest hashes the module's Go sources, which identifies the code
// under test even where the checkout carries no git metadata.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:12]
}

// tailPercentiles are the candidates for a tail figure, highest last.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// latencies is a sample of durations in milliseconds.
type latencies []float64

func (l latencies) sorted() []float64 {
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	return s
}

// rank is the 1-based nearest rank of percentile p in a sample of n.
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile is the nearest-rank percentile of a sorted sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

func (l latencies) p50() float64 { return percentile(l.sorted(), 50) }

// tail returns the highest candidate percentile with at least ten samples
// beyond it, its value, and the number of samples beyond it.
func (l latencies) tail() (p, v float64, beyond int) {
	s := l.sorted()
	p = tailPercentiles[0]
	for _, c := range tailPercentiles {
		if len(s)-rank(c, len(s)) >= 10 {
			p = c
		}
	}
	return p, percentile(s, p), len(s) - rank(p, len(s))
}

// describe renders a sample's size, median and tail for the notes.
func (l latencies) describe(name string) string {
	p, v, beyond := l.tail()
	return fmt.Sprintf("%s: n=%d p50=%.3fms tail=p%g %.3fms (%d beyond)", name, len(l), l.p50(), p, v, beyond)
}

// kindP50 is the geometric mean over request kinds of each kind's median.
func kindP50(byKind []latencies) float64 {
	var logs float64
	for _, l := range byKind {
		logs += math.Log(l.p50())
	}
	return math.Exp(logs / float64(len(byKind)))
}

// kindTail is the geometric mean over kinds of each kind's own tail.
func kindTail(byKind []latencies) float64 {
	var logs float64
	for _, l := range byKind {
		_, t, _ := l.tail()
		logs += math.Log(t)
	}
	return math.Exp(logs / float64(len(byKind)))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timedSetup runs set-up setupRepeats times and returns the last result
// with the median set-up time in seconds. Earlier results are released with
// discard.
func timedSetup[T any](rep *report, setup func() (T, error), discard func(T)) (T, float64, error) {
	var (
		cur   T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && discard != nil {
			discard(cur)
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return cur, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		cur = v
	}
	rep.note("set-up times (s): %.4f", times)
	return cur, median(times), nil
}

// rss samples the resident set while a workload runs; main starts it.
var rss *rssMeter

// rssMeter samples the process's resident set every 20 ms and keeps the
// highest sample of each second. The all-time peak (VmHWM) is one extreme
// moment of the run; over ten runs of the same code it split into two
// levels 25% apart. The median of the one-second peaks does not hang on
// one moment.
type rssMeter struct {
	mu    sync.Mutex
	peaks []float64 // MB, one per whole second
	stop  chan struct{}
	done  chan struct{}
}

func startRSSMeter() *rssMeter {
	m := &rssMeter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		peak := 0.0
		for n := 1; ; n++ {
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
			peak = max(peak, residentMB())
			if n%50 == 0 {
				m.mu.Lock()
				m.peaks = append(m.peaks, peak)
				m.mu.Unlock()
				peak = 0
			}
		}
	}()
	return m
}

// peakMB is the median of the one-second peaks so far.
func (m *rssMeter) peakMB() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return median(m.peaks)
}

// close stops the sampler and waits for it to end.
func (m *rssMeter) close() {
	close(m.stop)
	<-m.done
}

// residentMB reads the process's resident set from /proc/self/statm.
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, pages float64
	if _, err := fmt.Sscanf(string(data), "%f %f", &size, &pages); err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / 1e6
}

// hwmMB reads the process's all-time peak resident set (VmHWM).
func hwmMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb); err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
