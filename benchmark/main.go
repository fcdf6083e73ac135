// Command benchmark is the repository benchmark: it boots a BlobSeer
// deployment over loopback TCP inside this process, drives one named
// closed-loop workload through its own BSFS client stack, checks every
// byte it reads, and prints the metrics named in BENCHMARK.json.
//
//	benchmark --workload scan|random-read|append-read --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of one untraced
// window of S seconds. With --trace 1 it runs an untraced window of S/2
// seconds and then a traced one of S/2 seconds with timing wrappers on
// every layer, and reports the per-layer metrics plus the tracing
// overhead between the two. The last line of standard output is a
// JSON object; the lines before it repeat every metric as
// "name value unit". The exit code is non-zero when a read returned
// wrong bytes or the run could not complete. --setup-only is the
// child-process mode the run uses to time its extra set-up rounds.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRounds is how many times a run sets up its deployment; setup_s
// is the median. All but the measured deployment are set up in child
// processes (--setup-only), each in a fresh process like the measured
// one, so that what a stopped deployment leaves in memory reaches
// neither the measured window nor peak_rss_mb.
const setupRounds = 11

// deadline bounds a whole run, well inside the 180 s a run may take.
const deadline = 170 * time.Second

func main() {
	workloadName := flag.String("workload", "", "scan, random-read or append-read")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	setupOnly := flag.Bool("setup-only", false, "set up the workload's deployment once, print the seconds it took and exit")
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		logf("benchmark: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	w, err := newWorkload(*workloadName, uint64(*seed))
	if err != nil {
		logf("benchmark: %v", err)
		os.Exit(2)
	}
	time.AfterFunc(deadline, func() {
		logf("benchmark: run exceeded %v", deadline)
		os.Exit(3)
	})
	if *setupOnly {
		took, err := setupOnce(context.Background(), w)
		if err != nil {
			logf("benchmark: %s: setup: %v", w.name, err)
			os.Exit(1)
		}
		fmt.Println(strconv.FormatFloat(took, 'g', -1, 64))
		return
	}
	res, err := run(w, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		logf("benchmark: %s: %v", w.name, err)
		os.Exit(1)
	}
	if err := res.print(); err != nil {
		logf("benchmark: %v", err)
		os.Exit(1)
	}
	if !res.correct {
		os.Exit(1)
	}
}

type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	correct           bool
	attempted, failed int64
	report            []metric // the metrics of the JSON line
	extra             []metric // printed before it only
	mismatches        []string
}

func (r *result) print() error {
	out := bufio.NewWriter(os.Stdout)
	for _, m := range append(append([]metric(nil), r.report...), r.extra...) {
		fmt.Fprintf(out, "%s %s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	for _, s := range r.mismatches {
		fmt.Fprintf(out, "mismatch: %s\n", s)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.report))
	for _, m := range r.report {
		ms[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	out.Write(line)
	out.WriteByte('\n')
	return out.Flush()
}

func run(w *workload, window time.Duration, traced bool) (*result, error) {
	ctx := context.Background()
	scratch, err := newScratch()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	bt := &blockTap{}
	registerBlockTap(bt)

	var setups []float64
	for i := 1; i < setupRounds; i++ {
		took, err := setupChild(ctx, w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	d, st, took, err := setup(ctx, w, scratch)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setups = append(setups, took.Seconds())
	defer d.stop()
	defer st.close()

	mm := &mismatchLog{}
	var phases []*phase
	var untraced, tracedPhase *phase
	if !traced {
		if untraced, err = runPhase(ctx, w, d, st, bt, window, false, 0, mm); err != nil {
			return nil, err
		}
		phases = append(phases, untraced)
	} else {
		if untraced, err = runPhase(ctx, w, d, st, bt, window/2, false, 0, mm); err != nil {
			return nil, err
		}
		ts, err := newStack(d, w.replication, true)
		if err != nil {
			return nil, err
		}
		defer ts.close()
		if tracedPhase, err = runPhase(ctx, w, d, ts, bt, window/2, true, 1, mm); err != nil {
			return nil, err
		}
		phases = append(phases, untraced, tracedPhase)
	}
	if w.kind == kindAppendRead {
		if err := w.audit(ctx, st.fs, mm); err != nil {
			return nil, err
		}
	}

	res := &result{correct: mm.n.Load() == 0, mismatches: mm.first}
	for _, p := range phases {
		res.attempted += p.attempted.Load()
		res.failed += p.failed()
	}
	e2e := endToEnd(untraced, median(setups), peakRSSMB())
	if !traced {
		res.report = e2e[:numEndToEnd]
		res.extra = append(e2e[numEndToEnd:], diagnostics(untraced)...)
	} else {
		res.report = perLayer(untraced, tracedPhase, e2e)
		res.extra = append(diagnostics(untraced), extraSpans(tracedPhase, res.report)...)
	}
	return res, nil
}

// setupOnce sets up w's deployment in this process, stops it, and
// returns the seconds the setup took.
func setupOnce(ctx context.Context, w *workload) (float64, error) {
	scratch, err := newScratch()
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(scratch)
	registerBlockTap(&blockTap{})
	d, st, took, err := setup(ctx, w, scratch)
	if err != nil {
		return 0, err
	}
	st.close()
	d.stop()
	return took.Seconds(), nil
}

// setupChild runs one --setup-only round of w in a child process and
// returns the seconds it reports. The child is killed if this process
// dies first, and waited for in every case.
func setupChild(ctx context.Context, w *workload) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--workload", w.name, "--seed", strconv.FormatInt(int64(w.seed), 10), "--setup-only")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("setup child: %w", err)
	}
	took, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return 0, fmt.Errorf("setup child printed %q: %w", out, err)
	}
	return took, nil
}

// childTimeout bounds one --setup-only child.
const childTimeout = 30 * time.Second

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB returns the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
