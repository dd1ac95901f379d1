package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is the repository's benchmark definition, two levels up.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &b
}

// printed parses a run's "<workload> <metric> <value> <unit>" lines into
// workload -> metric -> unit.
func printed(t *testing.T, out string) map[string]map[string]string {
	t.Helper()
	got := map[string]map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 4 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if got[f[0]] == nil {
			got[f[0]] = map[string]string{}
		}
		got[f[0]][f[1]] = f[3]
	}
	return got
}

// lastJSON decodes the result object on the last line of a run's output.
func lastJSON(t *testing.T, out string) (correct bool, attempted, failed int) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	return res.Correct, res.Attempted, res.Failed
}

// TestSmoke runs every workload at a handful of inputs, untraced and
// traced, and checks that each metric BENCHMARK.json names is printed,
// with its unit, for every workload.
func TestSmoke(t *testing.T) {
	b := readBenchmarkFile(t)
	key, err := loadAnswers()
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []bool{false, true} {
		var stdout, stderr bytes.Buffer
		cfg := &config{workload: "all", seed: 1, seconds: 1, trace: trace, traceDir: t.TempDir(), answers: key, smoke: true}
		if code := run(cfg, &stdout, &stderr); code != 0 {
			t.Fatalf("trace=%t: exit %d\n%s%s", trace, code, stdout.String(), stderr.String())
		}
		got := printed(t, stdout.String())
		want := map[string]string{}
		if trace {
			for _, m := range b.PerLayer {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range b.EndToEnd {
				want[m.Name] = m.Unit
			}
		}
		for _, w := range b.Workloads {
			for name, unit := range want {
				if got[w.Name][name] != unit {
					t.Errorf("trace=%t: %s %s printed with unit %q, want %q", trace, w.Name, name, got[w.Name][name], unit)
				}
			}
		}
		correct, attempted, failed := lastJSON(t, stdout.String())
		if !correct || attempted == 0 || failed != 0 {
			t.Errorf("trace=%t: correct=%t attempted=%d failed=%d", trace, correct, attempted, failed)
		}
		if trace {
			for _, w := range b.Workloads {
				if _, err := os.Stat(filepath.Join(cfg.traceDir, w.Name+"-seed1.json")); err != nil {
					t.Errorf("no span file for %s: %v", w.Name, err)
				}
			}
		}
	}
}

// TestContradictionFails plants an answer-key entry that contradicts a
// ladder's minimal II and checks that the run fails on it.
func TestContradictionFails(t *testing.T) {
	key, err := loadAnswers()
	if err != nil {
		t.Fatal(err)
	}
	key.MinII = map[string]int{"accum/homo-diag-c1-3x3": 2} // accum maps at II 1
	var stdout, stderr bytes.Buffer
	cfg := &config{workload: "minii", seed: 1, seconds: 1, answers: key, smoke: true}
	if code := run(cfg, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\n%s%s", code, stdout.String(), stderr.String())
	}
	if correct, _, failed := lastJSON(t, stdout.String()); correct || failed == 0 {
		t.Errorf("correct=%t failed=%d, want a failure", correct, failed)
	}
	if !strings.Contains(stderr.String(), "contradicts the answer key") {
		t.Errorf("stderr does not name the contradiction:\n%s", stderr.String())
	}
}

// TestBenchmarkFile checks BENCHMARK.json against the metric and
// workload lists this program reports.
func TestBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}

	if len(b.Workloads) < 2 || len(b.Workloads) > 4 {
		t.Errorf("%d workloads, want 2 to 4", len(b.Workloads))
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	workloadNames := map[string]bool{}
	for i, w := range b.Workloads {
		checkName("workload", w.Name)
		workloadNames[w.Name] = true
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the program's is %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
	}

	if len(b.EndToEnd) == 0 || len(b.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", len(b.EndToEnd))
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d", len(b.EndToEnd), len(endToEnd))
	}
	e2e := map[string]bool{}
	var setupBound, maxBound float64
	for i, m := range b.EndToEnd {
		checkName("end-to-end metric", m.Name)
		e2e[m.Name] = true
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		if i < len(endToEnd) && (metricSpec{m.Name, m.Unit, m.Better}) != endToEnd[i] {
			t.Errorf("end-to-end metric %d is %v, the program's is %v", i, m, endToEnd[i])
		}
		maxBound = max(maxBound, *m.Bound)
		if m.Name == "setup_s" {
			setupBound = *m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s: unit %q, better %q", m.Unit, m.Better)
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be listed with the largest bound (%g), has %g", maxBound, setupBound)
	}

	if len(b.PerLayer) == 0 || len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", len(b.PerLayer))
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		checkName("per-layer metric", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if i >= len(perLayer) {
			continue
		}
		spec := perLayer[i]
		if spec.metricSpec != (metricSpec{m.Name, m.Unit, m.Better}) {
			t.Errorf("per-layer metric %d is %v, the program's is %v", i, m, spec.metricSpec)
		}
		if !e2e[spec.moves] || len(spec.on) == 0 {
			t.Errorf("%s must name the end-to-end metric it moves and where; names %q on %v", m.Name, spec.moves, spec.on)
		}
		for _, w := range spec.on {
			if !workloadNames[w] {
				t.Errorf("%s names unknown workload %q", m.Name, w)
			}
		}
	}

	if len(b.Paths) != 1 || b.Paths[0] != "cmd/cgrabench" {
		t.Errorf("paths = %v, want [cmd/cgrabench]", b.Paths)
	}
	if len(b.Command) < 2 || b.Command[1] != "cmd/cgrabench/run.sh" {
		t.Errorf("command = %v, want the build script under cmd/cgrabench", b.Command)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1 to 60", b.RunSeconds)
	}
}
