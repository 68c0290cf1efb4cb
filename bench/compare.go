package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json -compare reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// resultsDoc is a committed results file: the machine, named sets of
// untraced runs, and traced runs.
type resultsDoc struct {
	Machine machine   `json:"machine"`
	Sets    []runSet  `json:"sets"`
	Traced  []*result `json:"traced,omitempty"`
}

// runSet is a named set of runs.
type runSet struct {
	Name string    `json:"name"`
	Runs []*result `json:"runs"`
}

// loadSets reads a file of runs, one JSON object per line as -out
// writes them, or a results document, whose every set is returned.
func loadSets(path string) ([]runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc resultsDoc
	if err := json.Unmarshal(b, &doc); err == nil && len(doc.Sets) > 0 {
		for i := range doc.Sets {
			doc.Sets[i].Name = filepath.Base(path) + ":" + doc.Sets[i].Name
		}
		return doc.Sets, nil
	}
	set := runSet{Name: filepath.Base(path)}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		r := &result{}
		if err := json.Unmarshal(line, r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		set.Runs = append(set.Runs, r)
	}
	return []runSet{set}, sc.Err()
}

// values collects one metric of one workload over a set's untraced runs.
func (s runSet) values(workload, name string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		for _, m := range r.Metrics {
			if m.Name == name {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// runCompare prints, for every (workload, end-to-end metric), each
// set's median and quartiles, and each later set's difference from the
// first as a share of the first median, with PASS when it is no worse
// than the metric's bound.
func runCompare(specPath string, paths []string, w io.Writer) error {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	var sets []runSet
	for _, p := range paths {
		s, err := loadSets(p)
		if err != nil {
			return err
		}
		sets = append(sets, s...)
	}
	if len(sets) < 2 {
		return fmt.Errorf("compare needs at least two sets, have %d", len(sets))
	}
	var names []string
	seen := map[string]bool{}
	for _, s := range sets {
		for _, r := range s.Runs {
			if !r.Traced && !seen[r.Workload] {
				seen[r.Workload] = true
				names = append(names, r.Workload)
			}
		}
	}
	failed := 0
	fmt.Fprintf(w, "%-16s %-24s %-28s %4s %12s %12s %12s %8s %8s %s\n",
		"workload", "metric", "set", "n", "q1", "median", "q3", "spread", "diff", "verdict")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			var base float64
			for i, s := range sets {
				vs := s.values(wl, m.Name)
				if len(vs) == 0 {
					continue
				}
				q1, med, q3 := quartiles(vs)
				spread := (q3 - q1) / med
				verdict, diff := "", ""
				if i == 0 {
					base = med
				} else if base != 0 {
					rel := (med - base) / base
					worse := rel
					if m.Better == "higher" {
						worse = -rel
					}
					verdict = "PASS"
					if worse > m.Bound {
						verdict = "FAIL"
						failed++
					}
					diff = fmt.Sprintf("%+.4f", rel)
				}
				fmt.Fprintf(w, "%-16s %-24s %-28s %4d %12.6g %12.6g %12.6g %8.4f %8s %s\n",
					wl, m.Name, s.Name, len(vs), q1, med, q3, spread, diff, verdict)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d comparisons worse than their bound", failed)
	}
	return nil
}
