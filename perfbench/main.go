// Command perfbench is the repository benchmark. It generates seeded
// inputs for one workload, drives them from this process through an
// in-process internal/service HTTP server with a closed loop of two
// clients, checks every answer against an independent arbiter and
// prints the end-to-end metrics; with -trace 1 it instead replays the
// same inputs layer by layer and prints the per-layer metrics. See
// README.md for the workloads and the metric glossary. Run it through
// run.sh from the repository root:
//
//	bash perfbench/run.sh -workload decide_cold -seed 1 -seconds 20 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a run sets up from scratch; setup_s is
// the median.
const setupRepeats = 5

// minTailBeyond is how many samples must lie beyond the tail percentile
// for latency_tail_ms to be valid.
const minTailBeyond = 10

// metric is one reported value. A printOnly metric is shown in the
// human-readable table but left out of the result line.
type metric struct {
	Name      string
	Value     float64
	Unit      string
	printOnly bool
}

// result is the run's last stdout line.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: decide_cold, decide_repeat, materialize_so, materialize_restricted")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced layer-by-layer replay")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench-results"), "directory for result, span and layer files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds ≥ 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(*out, "scratch-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	ctx := context.Background()
	st := newStamp(w, *seed, *seconds, *trace == 1)
	dur := time.Duration(*seconds) * time.Second
	prefix := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", w.Name, *seed, *trace))
	var (
		metrics   []metric
		attempted int
		failures  []string
	)
	if *trace == 0 {
		metrics, attempted, failures, err = measure(ctx, w, *seed, dur, scratch, &st)
	} else {
		metrics, attempted, failures, err = replay(ctx, w, *seed, dur, scratch, prefix, &st)
	}
	if err != nil {
		return err
	}

	res := result{Correct: len(failures) == 0, Attempted: attempted, Failed: len(failures), Metrics: map[string]map[string]any{}}
	if *trace == 0 && st.TailBeyond < minTailBeyond {
		// Too few samples for the workload's fixed tail percentile: the
		// tail reading is invalid, so the run is not a result.
		fmt.Fprintf(os.Stderr, "perfbench: latency_tail_ms invalid: %d samples beyond p%g, need %d (%d samples; run longer or on a faster host)\n",
			st.TailBeyond, st.TailPercentile, minTailBeyond, st.Samples)
		res.Correct = false
	}
	for _, m := range metrics {
		if !m.printOnly {
			res.Metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	fmt.Fprintf(stdout, "# perfbench %s seed=%d seconds=%d trace=%d\n", w.Name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# host: cpus=%d gomaxprocs=%d cpu=%q go=%s commit=%s clients=%d\n",
		st.CPUs, st.GOMAXPROCS, st.CPUModel, st.GoVersion, st.Commit, st.Clients)
	fmt.Fprintf(stdout, "# samples=%d attempted=%d failed=%d tail=p%g (%d samples beyond) arbiter=%v\n",
		st.Samples, attempted, len(failures), st.TailPercentile, st.TailBeyond, st.Arbiter)
	for _, m := range metrics {
		fmt.Fprintf(stdout, "%-42s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, f := range tally(failures) {
		fmt.Fprintln(stdout, "# failure:", f)
	}
	if err := writeJSON(prefix+".json", map[string]any{"stamp": st, "result": res, "failures": tally(failures)}); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// measure sets the workload up setupRepeats times, runs the closed loop
// on the last set-up and returns the end-to-end metrics.
func measure(ctx context.Context, w workloadDef, seed int64, dur time.Duration, scratch string, st *stamp) ([]metric, int, []string, error) {
	var setups []float64
	var srv *server
	var in *inputs
	for k := 0; k < setupRepeats; k++ {
		if srv != nil {
			srv.close()
		}
		dir, err := os.MkdirTemp(scratch, "setup-")
		if err != nil {
			return nil, 0, nil, err
		}
		runtime.GC()
		t0 := time.Now()
		in, err = w.Build(ctx, seed)
		if err != nil {
			return nil, 0, nil, err
		}
		srv, err = startServerFor(ctx, w, in, dir)
		if err != nil {
			return nil, 0, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.close()
	st.Arbiter = in.Arbiter

	runtime.GC()
	res := closedLoop(ctx, srv.client, srv.http.URL, in.Next, dur)

	completed := len(res.Samples)
	attempted := completed + len(res.Failures)
	if completed == 0 {
		return nil, attempted, res.Failures, fmt.Errorf("no request completed (%d attempted): %v", attempted, tally(res.Failures))
	}
	lat := make([]float64, completed)
	first := make([]float64, completed)
	decided := 0
	for i, s := range res.Samples {
		lat[i], first[i] = ms(s.Latency), ms(s.FirstBatch)
		if s.Decided {
			decided++
		}
	}
	p := w.TailPercentile / 100
	tail := quantile(lat, p)
	st.Samples = completed
	st.TailBeyond = len(lat) - sort.SearchFloat64s(lat, math.Nextafter(tail, math.Inf(1)))
	metrics := []metric{
		{"latency_p50_ms", median(lat), "ms", false},
		{"latency_tail_ms", tail, "ms", false},
		{"throughput_rps", float64(completed) / res.Elapsed.Seconds(), "1/s", false},
		{"decided_share", float64(decided) / float64(attempted), "ratio", false},
		{"first_batch_p50_ms", median(first), "ms", false},
		{"alloc_mb_per_op", float64(res.AllocBytes) / 1e6 / float64(completed), "MB", false},
		{"setup_s", median(setups), "s", false},
		// failed_share is 0 on a correct program, so the result line
		// carries it as "failed" ÷ "attempted" instead.
		{"failed_share", float64(len(res.Failures)) / float64(attempted), "ratio", true},
	}
	return metrics, attempted, res.Failures, nil
}

// tally groups failure messages with their counts, most frequent first.
func tally(failures []string) []string {
	counts := map[string]int{}
	for _, f := range failures {
		counts[f]++
	}
	keys := make([]string, 0, len(counts))
	for f := range counts {
		keys = append(keys, f)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	out := make([]string, len(keys))
	for i, f := range keys {
		out[i] = fmt.Sprintf("%d× %s", counts[f], f)
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
