// Command benchjson converts `go test -bench` output on stdin into a JSON
// document on stdout, so CI can publish benchmark numbers as a machine-
// readable artifact (BENCH_chain.json) instead of a log to eyeball.
//
// Usage:
//
//	go test -bench . -run '^$' ./internal/chain/ | benchjson > BENCH_chain.json
//
// Output from several `go test -bench` runs can be concatenated on stdin:
// each package's preamble updates the current "pkg", which is recorded on
// every following result, so one artifact can merge benchmarks from
// multiple packages (CI merges ./internal/chain and the repo root).
//
// Each benchmark line ("BenchmarkFoo-8  100  12345 ns/op  67 B/op") becomes
// one result object with its metrics keyed by unit; the goos/goarch/cpu
// preamble lines are captured into the environment map. Non-benchmark lines
// (PASS, ok, test logs) are ignored.
//
// With -diff the command instead compares two artifacts and acts as CI's
// perf-regression gate:
//
//	benchjson -diff -threshold 0.15 -gate 'AddBlock|ProcessBlock' BENCH_chain.json BENCH_new.json
//
// It prints a per-benchmark delta table and exits 1 when any benchmark
// matching -gate got more than -threshold slower (ns/op), or disappeared
// from the candidate artifact — a rename must not silently disable the
// gate. Improvements and ungated changes are informational. A benchmark
// named twice in one package of either artifact is an error.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

type result struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type document struct {
	Environment map[string]string `json:"environment"`
	Results     []result          `json:"results"`
}

func main() {
	var (
		diffMode  = false
		threshold = 0.15
		gatePat   = ""
	)
	// Tiny hand-rolled flag scan: the default (stdin conversion) mode must
	// keep accepting a bare `benchjson < bench.txt` with no arguments.
	args := os.Args[1:]
	for len(args) > 0 && strings.HasPrefix(args[0], "-") {
		switch {
		case args[0] == "-diff":
			diffMode = true
			args = args[1:]
		case args[0] == "-threshold" && len(args) > 1:
			v, err := strconv.ParseFloat(args[1], 64)
			if err != nil || v <= 0 {
				fmt.Fprintln(os.Stderr, "benchjson: -threshold wants a positive fraction, e.g. 0.15")
				os.Exit(2)
			}
			threshold = v
			args = args[2:]
		case args[0] == "-gate" && len(args) > 1:
			gatePat = args[1]
			args = args[2:]
		default:
			fmt.Fprintf(os.Stderr, "benchjson: unknown flag %s\n", args[0])
			os.Exit(2)
		}
	}
	if diffMode {
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -diff [-threshold 0.15] [-gate regexp] OLD.json NEW.json")
			os.Exit(2)
		}
		var gate *regexp.Regexp
		if gatePat != "" {
			var err error
			if gate, err = regexp.Compile(gatePat); err != nil {
				fmt.Fprintln(os.Stderr, "benchjson: bad -gate:", err)
				os.Exit(2)
			}
		}
		failed, err := runDiff(args[0], args[1], threshold, gate, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if failed {
			os.Exit(1)
		}
		return
	}

	doc := document{
		Environment: map[string]string{},
		Results:     []result{},
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	pkg := "" // the package whose preamble was seen most recently
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, key := range []string{"goos", "goarch", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				doc.Environment[key] = strings.TrimSpace(v)
			}
		}
		if v, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(v)
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // a benchmark name alone on its line, not a result row
		}
		r := result{Name: fields[0], Pkg: pkg, Iterations: iters, Metrics: map[string]float64{}}
		// The remainder alternates value/unit: "12345 ns/op 67 B/op ...".
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			r.Metrics[fields[i+1]] = v
		}
		doc.Results = append(doc.Results, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
