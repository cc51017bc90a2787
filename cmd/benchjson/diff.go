package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"

	"contractshard/internal/metrics"
)

// delta is one benchmark's baseline-vs-candidate comparison.
type delta struct {
	Key      string  // pkg-qualified benchmark name
	Old, New float64 // ns/op
	Pct      float64 // (new-old)/old, NaN when either side is missing
	Gated    bool
	Status   string // ok | faster | REGRESSED | MISSING | new
}

// loadDoc reads one benchjson artifact.
func loadDoc(path string) (document, error) {
	var doc document
	raw, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// stripCPU removes the trailing -N GOMAXPROCS suffix go test appends to
// benchmark names ("BenchmarkAddBlock-8" -> "BenchmarkAddBlock").
func stripCPU(name string) string {
	i := strings.LastIndex(name, "-")
	if i <= 0 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	if i == len(name)-1 {
		return name
	}
	return name[:i]
}

// indexDoc keys a document's ns/op metrics by pkg-qualified name. The
// GOMAXPROCS suffix is stripped so a baseline recorded on an 8-core box
// matches a 4-core CI runner. Two results under one key (a repeated run or
// a -cpu sweep) are an error: the gate would otherwise read whichever came
// last.
func indexDoc(doc document) (map[string]float64, error) {
	out := map[string]float64{}
	for _, r := range doc.Results {
		ns, ok := r.Metrics["ns/op"]
		if !ok {
			continue
		}
		key := r.Pkg + ": " + stripCPU(r.Name)
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("duplicate benchmark %s", key)
		}
		out[key] = ns
	}
	return out, nil
}

// diffDocs compares two artifacts. A gated benchmark (name matching gate;
// nil gates everything) fails the diff when its ns/op grew more than
// threshold, or when it vanished from the candidate — a silent rename must
// not disable the gate. Ungated and improved entries are informational.
func diffDocs(oldDoc, newDoc document, threshold float64, gate *regexp.Regexp) (rows []delta, failed bool, err error) {
	oldNS, err := indexDoc(oldDoc)
	if err != nil {
		return nil, false, fmt.Errorf("baseline: %w", err)
	}
	newNS, err := indexDoc(newDoc)
	if err != nil {
		return nil, false, fmt.Errorf("candidate: %w", err)
	}
	keys := make([]string, 0, len(oldNS)+len(newNS))
	for k := range oldNS {
		keys = append(keys, k)
	}
	for k := range newNS {
		if _, ok := oldNS[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		d := delta{Key: k, Old: oldNS[k], New: newNS[k], Pct: math.NaN()}
		d.Gated = gate == nil || gate.MatchString(k)
		oldOK := d.Old > 0
		_, newOK := newNS[k]
		switch {
		case oldOK && newOK:
			d.Pct = (d.New - d.Old) / d.Old
			switch {
			case d.Gated && d.Pct > threshold:
				d.Status, failed = "REGRESSED", true
			case d.Pct < -threshold:
				d.Status = "faster"
			default:
				d.Status = "ok"
			}
		case oldOK:
			d.Status = "MISSING"
			if d.Gated {
				failed = true
			}
		default:
			d.Status = "new"
		}
		rows = append(rows, d)
	}
	return rows, failed, nil
}

// runDiff loads, compares and renders the two artifacts, returning whether
// the gate failed.
func runDiff(oldPath, newPath string, threshold float64, gate *regexp.Regexp, w io.Writer) (bool, error) {
	oldDoc, err := loadDoc(oldPath)
	if err != nil {
		return false, err
	}
	newDoc, err := loadDoc(newPath)
	if err != nil {
		return false, err
	}
	rows, failed, err := diffDocs(oldDoc, newDoc, threshold, gate)
	if err != nil {
		return false, err
	}
	t := &metrics.Table{
		Title:   fmt.Sprintf("benchmark diff: %s -> %s (gate threshold %+.0f%%)", oldPath, newPath, threshold*100),
		Headers: []string{"benchmark", "old ns/op", "new ns/op", "delta", "gated", "status"},
	}
	fmtNS := func(v float64) string {
		if v == 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f", v)
	}
	for _, d := range rows {
		pct := "-"
		if !math.IsNaN(d.Pct) {
			pct = fmt.Sprintf("%+.1f%%", d.Pct*100)
		}
		gated := ""
		if d.Gated {
			gated = "yes"
		}
		t.AddRow(d.Key, fmtNS(d.Old), fmtNS(d.New), pct, gated, d.Status)
	}
	fmt.Fprintln(w, t.String())
	if failed {
		fmt.Fprintf(w, "FAIL: at least one gated benchmark regressed beyond %.0f%% (or went missing)\n", threshold*100)
	}
	return failed, nil
}
