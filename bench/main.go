// Command bench is the repository's one measurement spine. For each named
// workload it spawns a real dio-server process with default flags on a
// fresh data directory, drives it over loopback HTTP in a closed loop,
// checks every response against what an in-process copy of the stack
// computes, and prints every metric by name with its unit. With -trace 1
// it also serves the workload inside this process, with timing decorators
// and layer replays, and prints the per-layer ledger.
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-aa] [-out FILE]
//
// See README.md for the workloads, the metrics and how they interact.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"dio/internal/catalog"
)

const (
	// warmUp is how long a server is driven before the first window, and
	// windowWarmUp before each later one, when it has idled for seconds.
	warmUp       = time.Second
	windowWarmUp = 300 * time.Millisecond
)

// session owns what a process run leaves behind: the scratch directory and
// the servers still alive.
type session struct {
	root    string // repository root
	bin     string // dio-server binary
	scratch string
	dirs    int
	live    map[*server]bool
}

func (s *session) newDir(prefix string) string {
	s.dirs++
	return filepath.Join(s.scratch, fmt.Sprintf("%s-%d", prefix, s.dirs))
}

func (s *session) spawn(ctx context.Context, dataDir string) (*server, time.Duration, error) {
	srv, took, err := spawn(ctx, s.bin, dataDir)
	if err == nil {
		s.live[srv] = true
	}
	return srv, took, err
}

func (s *session) kill(srv *server) {
	srv.kill()
	delete(s.live, srv)
}

// cleanup stops every server still running and removes the scratch files.
func (s *session) cleanup() {
	for srv := range s.live {
		s.kill(srv)
	}
	os.RemoveAll(s.scratch)
}

// findRoot returns the repository root: the working directory when the
// benchmark is started through bench/run.sh, its parent under `go run .`
// inside bench/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "dio-server", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("cmd/dio-server not found: run from the repository root or from bench/")
}

// newSession builds cmd/dio-server once and creates the scratch directory.
func newSession() (*session, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	s := &session{root: root, bin: filepath.Join(build, "bin", "dio-server"), live: map[*server]bool{}}
	cmd := exec.Command("go", "build", "-o", s.bin, "./cmd/dio-server")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("building cmd/dio-server: %w", err)
	}
	if s.scratch, err = os.MkdirTemp(build, "run-"); err != nil {
		return nil, err
	}
	return s, nil
}

// result is what one workload run reports.
type result struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	SequenceHash string `json:"sequence_hash"`
	Attempted    int    `json:"attempted"`
	Failed       int    `json:"failed"`
	EndToEnd     values `json:"end_to_end"`
	PerLayer     values `json:"per_layer,omitempty"`
}

// copyCheckpoint copies the checkpoint files of a live server's data
// directory, which are immutable once written, into a new directory.
func copyCheckpoint(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	files, err := filepath.Glob(filepath.Join(from, "checkpoint-*"))
	if err != nil || len(files) == 0 {
		return fmt.Errorf("no checkpoint in %s (%v)", from, err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err == nil {
			err = os.WriteFile(filepath.Join(to, filepath.Base(f)), data, 0o644)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runWorkload sets a server up and measures one workload against it in
// three windows that add up to seconds, sets the other servers up between
// the windows, restarts the measured server after a SIGKILL and, when
// traced, serves the workload in the lab as well. It writes a report to out.
func (s *session) runWorkload(ctx context.Context, out io.Writer, name string, seed int64, seconds float64, traced bool) (*result, error) {
	cat := catalog.Generate()
	cat.AddSelfMetrics()
	w, err := newWorkload(name, cat, seed)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: name, Seed: seed, SequenceHash: w.sequenceHash(64)}
	phase := time.Duration(seconds * float64(time.Second))
	if traced {
		phase /= 2 // the other half is the lab's
	}
	o := &outcome{}
	setUp := func() (*server, error) {
		srv, took, err := s.spawn(ctx, s.newDir("data"))
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", len(o.setups)+1, err)
		}
		o.setups = append(o.setups, took.Seconds())
		return srv, nil
	}

	// The first server set up is the one measured. The lab opens a copy of
	// the checkpoint it wrote and computes what it must answer.
	srv, err := setUp()
	if err != nil {
		return nil, err
	}
	labDir := s.newDir("lab")
	if err := copyCheckpoint(srv.dataDir, labDir); err != nil {
		return nil, err
	}
	l, err := openLab(labDir)
	if err != nil {
		return nil, fmt.Errorf("building the in-process stack: %w", err)
	}
	defer l.close()
	expect, err := l.expect(ctx, w)
	if err != nil {
		return nil, fmt.Errorf("computing expected responses: %w", err)
	}
	// The measuring client should not collect the lab's garbage mid-run.
	debug.FreeOSMemory()

	// Measure in windows. An untraced run sets up another fresh server
	// after each window but the last: that gives setup_s its other samples
	// and spreads the windows over the run.
	d, err := newDriver(w, expect, srv, phase/windows)
	if err != nil {
		return nil, err
	}
	for i := 0; i < windows; i++ {
		warm := windowWarmUp
		if i == 0 {
			warm = warmUp
		}
		if err := d.window(i, warm); err != nil {
			return nil, err
		}
		if !traced && i < windows-1 {
			other, err := setUp()
			if err != nil {
				return nil, err
			}
			s.kill(other)
		}
	}
	if o.m, err = d.finish(); err != nil {
		return nil, err
	}
	var first error
	res.Attempted, res.Failed, first = o.m.failures()
	if first != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: first failure: %v\nserver log:\n%s\n", name, first, srv.logTail())
	}

	// Crash and recover: the restart replays the WAL the windows wrote.
	s.kill(srv)
	srv, took, err := s.spawn(ctx, srv.dataDir)
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	o.recoverS = took.Seconds()
	if err := checkDurable(srv.base, o.m.acked); err != nil {
		return nil, err
	}
	probe := newClient()
	o.recovered, err = srv.scrape(probe)
	probe.CloseIdleConnections()
	if err != nil {
		return nil, err
	}
	s.kill(srv)

	res.EndToEnd = o.endToEndValues()
	printEndToEnd(out, res, o)
	if !traced {
		return res, nil
	}

	if err := l.openTwins(s.newDir("twins")); err != nil {
		return nil, err
	}
	t, err := l.traced(ctx, w, expect, phase)
	if err != nil {
		return nil, err
	}
	res.PerLayer = perLayerValues(o, expect, l, t)
	printLedger(out, name, t.spans)
	printValues(out, "per-layer metrics", perLayer, res.PerLayer)
	outDir := filepath.Join(s.root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	spanFile := filepath.Join(outDir, "trace-"+name+".json")
	if err := l.rec.writeJSON(spanFile); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "  %d spans of %d requests written to %s\n", len(t.spans), t.requests, spanFile)
	return res, nil
}

func printEndToEnd(out io.Writer, res *result, o *outcome) {
	primary := o.summary(0)
	fmt.Fprintf(out, "workload %s: seed %d, %d windows of %d segments of %s after %s warm-up, primary operation %s n=%d\n",
		res.Workload, res.Seed, windows, segmentsPerWindow, o.m.segment, warmUp, o.m.classes[0].name, len(o.m.classes[0].samples))
	for _, d := range endToEnd {
		note := ""
		switch d.Name {
		case "p50_ms":
			note = fmt.Sprintf("middle four of six segments, all in %.4g..%.4g", primary.p50.lo, primary.p50.hi)
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups %.3f", len(o.setups), o.setups)
		case "cpu_ms_per_op":
			note = fmt.Sprintf("%.2f s server CPU over %d operations", o.m.cpuS, o.m.ops())
		}
		fmt.Fprintf(out, "  %-16s %12.4f %-4s %s\n", d.Name, res.EndToEnd[d.Name], d.Unit, note)
	}
	// Not end-to-end metrics, because this host cannot repeat them within
	// a bound the contract allows; a traced run reports them as client.*
	// and process.recover_s.
	fmt.Fprintf(out, "  %-16s %12.4f s    SIGKILL, restart on the same directory, first 200\n", "recover_s", o.recoverS)
	fmt.Fprintf(out, "  %-16s %12.4f ms   middle four of six segments, all in %.4g..%.4g\n", "p90_ms", primary.p90.mid, primary.p90.lo, primary.p90.hi)
	fmt.Fprintf(out, "  %-16s %12.4f 1/s  middle four of six segments, all in %.4g..%.4g\n", "ops_per_s", primary.opsPerS.mid, primary.opsPerS.lo, primary.opsPerS.hi)
	if len(o.m.classes) > 1 {
		reader := o.summary(1)
		fmt.Fprintf(out, "  %-16s %12.4f ms   concurrent %s, n=%d\n", "read_p50_ms", reader.p50.mid, o.m.classes[1].name, len(o.m.classes[1].samples))
		fmt.Fprintf(out, "  %-16s %12.4f ms\n", "read_p90_ms", reader.p90.mid)
	}
	if o.m.acked > 0 {
		fmt.Fprintf(out, "  durability       %d acknowledged samples readable after SIGKILL and restart\n", o.m.acked*pushSeries)
	}
	fmt.Fprintf(out, "  %-16s %12.4f      %d failed of %d attempted\n", "fail_ratio",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
}

func printValues(out io.Writer, title string, defs []metricDef, v values) {
	fmt.Fprintf(out, "%s\n", title)
	for _, d := range defs {
		fmt.Fprintf(out, "  %-32s %14.4f %s\n", d.Name, v[d.Name], d.Unit)
	}
}

// resultLine is the last line of standard output: the form the benchmark
// driver reads.
func resultLine(res *result, traced bool) ([]byte, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, res.EndToEnd
	if traced {
		defs, vals = perLayer, res.PerLayer
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		metrics[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return json.Marshal(map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
}

// hostLine is recorded in every result file.
type hostLine struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func host(root string, seed int64) hostLine {
	h := hostLine{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown", Seed: seed}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// resultFile is what -out writes. Claim is null: the benchmark measures,
// it claims no gain.
type resultFile struct {
	Host      hostLine  `json:"host"`
	Seconds   float64   `json:"seconds"`
	Workloads []*result `json:"workloads"`
	Claim     *string   `json:"claim"`
}

func writeResultFile(path string, doc resultFile) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareAA prints, for every workload and end-to-end metric, the values of
// two runs of the same binary and their difference against the metric's
// bound. It reports whether every difference is within its bound.
func compareAA(out io.Writer, a1, a2 []*result) bool {
	ok := true
	fmt.Fprintf(out, "A/A: two sets of runs of the same binary\n")
	fmt.Fprintf(out, "  %-11s %-14s %12s %12s %8s %6s\n", "workload", "metric", "A1", "A2", "worse", "bound")
	for i := range a1 {
		for _, d := range endToEnd {
			v1, v2 := a1[i].EndToEnd[d.Name], a2[i].EndToEnd[d.Name]
			worseBy := func(from, to float64) float64 {
				if d.Better == higher {
					return (from - to) / from
				}
				return (to - from) / from
			}
			// Neither run is the baseline: each must be within the bound
			// of the other.
			worse := worseBy(v1, v2)
			verdict := ""
			if worse > d.Bound || worseBy(v2, v1) > d.Bound {
				verdict, ok = "  MISS", false
			}
			fmt.Fprintf(out, "  %-11s %-14s %12.4f %12.4f %+7.1f%% %5.0f%%%s\n",
				a1[i].Workload, d.Name, v1, v2, 100*worse, 100*d.Bound, verdict)
		}
		if a1[i].Failed+a2[i].Failed > 0 {
			fmt.Fprintf(out, "  %-11s failed operations: %d and %d  MISS\n", a1[i].Workload, a1[i].Failed, a2[i].Failed)
			ok = false
		}
	}
	return ok
}

func run() error {
	var (
		workloadFlag = flag.String("workload", "", "run one workload: "+strings.Join(workloadNames, ", ")+" (default: all four)")
		seed         = flag.Int64("seed", 1, "workload seed; the server only ever receives the generated requests")
		seconds      = flag.Float64("seconds", 6, "length of the measured phase; a traced run gives half of it to the in-process replay")
		trace        = flag.Int("trace", 0, "1 also serves the workload in-process with timing decorators and prints the layer ledger")
		aa           = flag.Bool("aa", false, "run the set twice on the same binary and compare the end-to-end metrics against their bounds")
		outPath      = flag.String("out", "", "write the results, with the host line, to this JSON file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	todo := workloadNames
	if *workloadFlag != "" {
		todo = []string{*workloadFlag}
	}
	// These change which evaluator and how many replicas a default-flag
	// server runs; the benchmark measures the defaults.
	for _, name := range []string{"DIO_PROMQL_LEGACY", "DIO_PROMQL_NOPOOL", "DIO_QUERY_STATS", "DIO_REPLICAS"} {
		os.Unsetenv(name)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	s, err := newSession()
	if err != nil {
		return err
	}
	defer s.cleanup()

	runSet := func() ([]*result, error) {
		var set []*result
		for _, name := range todo {
			res, err := s.runWorkload(ctx, os.Stdout, name, *seed, *seconds, *trace == 1)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			set = append(set, res)
		}
		return set, nil
	}
	set, err := runSet()
	if err != nil {
		return err
	}
	agree := true
	if *aa {
		again, err := runSet()
		if err != nil {
			return err
		}
		agree = compareAA(os.Stdout, set, again)
		set = append(set, again...)
	}
	if *outPath != "" {
		doc := resultFile{Host: host(s.root, *seed), Seconds: *seconds, Workloads: set}
		if err := writeResultFile(*outPath, doc); err != nil {
			return err
		}
	}
	failed := 0
	for _, res := range set {
		failed += res.Failed
		line, err := resultLine(res, *trace == 1)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	if !agree {
		return errors.New("two runs of the same binary differ by more than a bound")
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
