// Command tracestat summarizes a bottleneck drop log the way the
// paper's §4 analysis does: drop count and rate, inter-drop time
// statistics, and the Goh–Barabási burstiness score (paper: ≈0.2 at
// EdgeScale, ≈0.35 at CoreScale).
//
// Input is one event timestamp per line (seconds, float), on stdin or
// in the files given as arguments. Lines starting with '#' are
// ignored; for CSV lines the first field is used.
//
// With -telemetry, the input is instead a telemetry JSONL stream (as
// written by reproduce -telemetry or fprint -telemetry) and the summary
// is event-taxonomy-aware: per-kind counts, per-run and per-flow loss
// episodes, queue watermarks, and the stream's virtual-time span.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"ccatscale/internal/metrics"
	"ccatscale/internal/telemetry"
)

func main() {
	telemetryMode := flag.Bool("telemetry", false, "input is a telemetry JSONL stream, not raw timestamps")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tracestat [-telemetry] [file ...] (default: stdin)\n")
	}
	flag.Parse()

	if *telemetryMode {
		if err := summarizeTelemetry(flag.Args()); err != nil {
			fatal(err)
		}
		return
	}

	var times []float64
	if flag.NArg() == 0 {
		t, err := parse(os.Stdin)
		if err != nil {
			fatal(err)
		}
		times = t
	}
	for _, name := range flag.Args() {
		f, err := os.Open(name)
		if err != nil {
			fatal(err)
		}
		t, err := parse(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		times = append(times, t...)
	}
	if len(times) == 0 {
		fatal(fmt.Errorf("no events"))
	}

	sort.Float64s(times)
	span := times[len(times)-1] - times[0]
	fmt.Printf("events:     %d\n", len(times))
	fmt.Printf("span:       %.3fs\n", span)
	if span > 0 {
		fmt.Printf("event rate: %.2f/s\n", float64(len(times)-1)/span)
	}
	gaps := make([]float64, 0, len(times)-1)
	for i := 1; i < len(times); i++ {
		gaps = append(gaps, times[i]-times[i-1])
	}
	if len(gaps) > 0 {
		fmt.Printf("inter-event: mean %.6fs  median %.6fs  p95 %.6fs  stddev %.6fs\n",
			metrics.Mean(gaps), metrics.Median(gaps), metrics.Quantile(gaps, 0.95), metrics.StdDev(gaps))
	}
	fmt.Printf("burstiness (Goh–Barabási): %.3f\n", metrics.BurstinessOfGaps(func(yield func(float64)) {
		for _, g := range gaps {
			yield(g)
		}
	}))
}

func parse(r io.Reader) ([]float64, error) {
	var out []float64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if i := strings.IndexByte(text, ','); i >= 0 {
			text = text[:i]
		}
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		out = append(out, v)
	}
	return out, sc.Err()
}

// summarizeTelemetry reads one or more telemetry JSONL streams and
// prints a taxonomy-aware summary. Unknown schema majors are rejected
// by the stream parser before any record is consumed.
func summarizeTelemetry(names []string) error {
	kindCounts := map[string]int{}
	lossByRun := map[string]int{}
	runs := map[string]bool{}
	flows := map[string]bool{}
	var records int
	var minT, maxT float64
	var queuePeakBytes, queuePeakPkts int64

	scan := func(r io.Reader) error {
		return telemetry.ParseStream(r, func(rec telemetry.StreamRecord) error {
			records++
			kindCounts[rec.Kind]++
			if records == 1 || rec.T < minT {
				minT = rec.T
			}
			if rec.T > maxT {
				maxT = rec.T
			}
			if rec.Run != "" {
				runs[rec.Run] = true
			}
			if rec.Flow >= 0 {
				flows[fmt.Sprintf("%s/%d", rec.Run, rec.Flow)] = true
			}
			switch rec.Kind {
			case "loss":
				lossByRun[rec.Run]++
			case "queue-watermark":
				if rec.A > queuePeakBytes {
					queuePeakBytes = rec.A
				}
				if rec.B > queuePeakPkts {
					queuePeakPkts = rec.B
				}
			}
			return nil
		})
	}
	if len(names) == 0 {
		if err := scan(os.Stdin); err != nil {
			return err
		}
	}
	for _, name := range names {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		err = scan(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	if records == 0 {
		return fmt.Errorf("no telemetry records")
	}

	fmt.Printf("records:     %d\n", records)
	fmt.Printf("run labels:  %d\n", len(runs))
	if n := kindCounts["run-start"]; n > 0 {
		fmt.Printf("sim runs:    %d\n", n)
	}
	fmt.Printf("flows seen:  %d\n", len(flows))
	fmt.Printf("virtual span: %.3fs – %.3fs\n", minT, maxT)
	kinds := make([]string, 0, len(kindCounts))
	for k := range kindCounts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("  %-16s %d\n", k, kindCounts[k])
	}
	if n := kindCounts["loss"]; n > 0 {
		perRun := make([]float64, 0, len(lossByRun))
		for _, c := range lossByRun {
			perRun = append(perRun, float64(c))
		}
		fmt.Printf("loss episodes: %d total, mean %.1f/label\n", n, metrics.Mean(perRun))
	}
	if queuePeakBytes > 0 {
		fmt.Printf("queue peak:  %d bytes, %d packets\n", queuePeakBytes, queuePeakPkts)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracestat:", err)
	os.Exit(1)
}
