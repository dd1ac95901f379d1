package main

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"cgramap/internal/arch"
	"cgramap/internal/mapper"
)

func TestLoadDFG(t *testing.T) {
	if _, err := loadDFG("", ""); err == nil {
		t.Error("no source accepted")
	}
	if _, err := loadDFG("x.dfg", "accum"); err == nil {
		t.Error("both sources accepted")
	}
	if _, err := loadDFG("", "accum"); err != nil {
		t.Errorf("benchmark: %v", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "k.dfg")
	if err := os.WriteFile(path, []byte("dfg k\ninput a\noutput o a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := loadDFG(path, "")
	if err != nil || g.NumOps() != 2 {
		t.Errorf("file DFG: %v", err)
	}
	if _, err := loadDFG(filepath.Join(dir, "missing.dfg"), ""); err == nil {
		t.Error("missing file accepted")
	}
}

// TestLoadArch: with no architecture source cgramap maps onto the 4x4
// default; an XML file and a fabric description exclude each other; and
// -contexts overrides an XML file's own context count, so a c1 XML run
// at -contexts 2 solves a 2-context MRRG.
func TestLoadArch(t *testing.T) {
	var code int
	var err error
	out := captureStdout(t, func() {
		code, err = run(runOpts{benchName: "accum", objective: "feasibility", timeout: time.Minute, quiet: true})
	})
	if err != nil || code != exitOK || !strings.Contains(out, "onto homo-orth-c1-4x4 (712 MRRG nodes, 1 contexts)") {
		t.Errorf("default fabric: exit %d, error %v\n%s", code, err, out)
	}

	a, err := arch.Load("", "4x4", 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c1.xml")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteXML(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if code, err := run(runOpts{benchName: "accum", archFile: path, fabric: "4x4",
		objective: "feasibility", timeout: time.Minute, quiet: true}); err == nil || code != exitError {
		t.Errorf("-arch with -fabric: exit %d, error %v; want a usage error", code, err)
	}
	out = captureStdout(t, func() {
		code, err = run(runOpts{benchName: "accum", archFile: path, contexts: 2,
			objective: "feasibility", timeout: time.Minute, quiet: true})
	})
	if err != nil || code != exitOK {
		t.Fatalf("c1 XML at -contexts 2: exit %d, error %v\n%s", code, err, out)
	}
	if !strings.Contains(out, "onto homo-orth-c1-4x4 (1424 MRRG nodes, 2 contexts)") || !strings.Contains(out, "status: optimal") {
		t.Errorf("c1 XML at -contexts 2 did not solve a 2-context MRRG:\n%s", out)
	}
}

func TestRunLPExport(t *testing.T) {
	dir := t.TempDir()
	lp := filepath.Join(dir, "m.lp")
	code, err := run(runOpts{benchName: "2x2-f", fabric: "4x4:diag",
		objective: "feasibility", timeout: time.Minute, lpOut: lp, quiet: true})
	if err != nil || code != exitOK {
		t.Fatal(code, err)
	}
	data, err := os.ReadFile(lp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Minimize") || !strings.Contains(string(data), "Binary") {
		t.Error("LP file malformed")
	}
}

// TestRunLPExportWriteFailure: an export whose bytes cannot be written
// (here /dev/full, which fails every write with ENOSPC) exits 1 and
// never claims to have written the file.
func TestRunLPExportWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	var code int
	var runErr error
	out := captureStdout(t, func() {
		code, runErr = run(runOpts{benchName: "2x2-f", fabric: "4x4:diag",
			objective: "feasibility", timeout: time.Minute, lpOut: "/dev/full", quiet: true})
	})
	if code != exitError || runErr == nil {
		t.Errorf("exit %d, error %v; want exit %d with an error", code, runErr, exitError)
	}
	if strings.Contains(out, "wrote") {
		t.Errorf("failed export reported as written:\n%s", out)
	}
}

func TestRunSolveSmall(t *testing.T) {
	code, err := run(runOpts{benchName: "2x2-f", fabric: "4x4:diag,c2",
		objective: "feasibility", timeout: 2 * time.Minute,
		quiet: true, showCfg: true, validate: true, floorplan: true})
	if err != nil || code != exitOK {
		t.Fatal(code, err)
	}
	// Bad flag values.
	if code, err := run(runOpts{benchName: "2x2-f", fabric: "4x4",
		objective: "zorp", timeout: time.Minute, quiet: true}); err == nil || code != exitError {
		t.Error("bad objective accepted")
	}
	if code, err := run(runOpts{benchName: "2x2-f", fabric: "4x4", knobs: mapper.Flags{Workers: -1},
		objective: "feasibility", timeout: time.Minute, quiet: true}); err == nil || code != exitError {
		t.Error("negative -workers accepted")
	}
}

// TestRunAnnealRejectsAutoII: a heuristic cannot prove an II minimal, so
// -anneal with -auto-ii is a usage error, not an annealing run at the
// -contexts count.
func TestRunAnnealRejectsAutoII(t *testing.T) {
	code, err := run(runOpts{benchName: "2x2-f", fabric: "2x2:diag,c2", useSA: true, autoII: 4,
		objective: "feasibility", timeout: time.Minute, quiet: true})
	if err == nil || code != exitError || !strings.Contains(err.Error(), "-auto-ii requires an exact engine") {
		t.Errorf("-anneal -auto-ii: code %d, err %v; want exit %d with the exact-engine error", code, err, exitError)
	}
}

// TestRunAnnealValidates: an annealed mapping goes through the same
// post-processing as an exact one, so -validate simulates it.
func TestRunAnnealValidates(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	code, runErr := run(runOpts{benchName: "2x2-f", fabric: "2x2:diag,c2", useSA: true,
		knobs: mapper.Flags{Seed: 5}, objective: "feasibility", timeout: time.Minute,
		quiet: true, validate: true})
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil || code != exitOK {
		t.Fatalf("exit %d, error %v\n%s", code, runErr, out)
	}
	if !strings.Contains(string(out), "validated:") {
		t.Errorf("-anneal -validate did not validate:\n%s", out)
	}
}

// TestRunExitInfeasible: a DFG with more operations than a 1-context 2x2
// grid has FUs is provably unmappable, and the CLI must say so with
// exit status 2 — the script-visible difference from a timeout.
func TestRunExitInfeasible(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "big.dfg")
	var sb strings.Builder
	sb.WriteString("dfg big\ninput a\ninput b\n")
	prev := "a"
	for i := 0; i < 6; i++ {
		cur := string(rune('c' + i))
		sb.WriteString("add " + cur + " " + prev + " b\n")
		prev = cur
	}
	sb.WriteString("output o " + prev + "\n")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	code, err := run(runOpts{dfgFile: path, fabric: "2x2:diag",
		objective: "feasibility", timeout: time.Minute, quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	if code != exitInfeasible {
		t.Errorf("exit code %d for a proven-infeasible instance, want %d", code, exitInfeasible)
	}
}

// TestRunExitUnknown: an expired deadline leaves the instance undecided,
// which must surface as exit status 3, not as infeasibility. The status
// is followed by what the result knows of where the budget went, and by
// nothing it does not know: no model size for a sweep cancelled before
// any model was built, no search counters for a solve cancelled before
// its search started.
func TestRunExitUnknown(t *testing.T) {
	for _, tc := range []struct {
		name    string
		o       runOpts
		explain string // the line after the status; "" = none
	}{
		{"cancelled-before-search",
			runOpts{benchName: "mac", fabric: "4x4:diag,c2", timeout: time.Nanosecond},
			`^  model: [1-9]\d* vars, [1-9]\d* constraints$`},
		{"mid-search",
			runOpts{benchName: "mult_16", fabric: "4x4", knobs: mapper.Flags{Workers: 1}, timeout: time.Second},
			`^  model: [1-9]\d* vars, [1-9]\d* constraints; search: \d+ conflicts, \d+ propagations, \d+ restarts$`},
		{"auto-ii-cancelled",
			runOpts{benchName: "mac", fabric: "4x4:diag,c2", autoII: 4, timeout: time.Nanosecond},
			""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.o.objective, tc.o.quiet = "feasibility", true
			var code int
			var err error
			out := captureStdout(t, func() { code, err = run(tc.o) })
			if err != nil {
				t.Fatal(err)
			}
			if code != exitUnknown {
				t.Errorf("exit code %d for a timed-out solve, want %d", code, exitUnknown)
			}
			explained := regexp.MustCompile(`(?m)^  (model|search): .*$`).FindString(out)
			if tc.explain == "" {
				if explained != "" {
					t.Errorf("cancelled sweep reports a model or search it never had: %q", explained)
				}
			} else if !regexp.MustCompile(tc.explain).MatchString(explained) {
				t.Errorf("explanation %q does not match %s; output:\n%s", explained, tc.explain, out)
			}
		})
	}
}

// captureStdout runs f with os.Stdout redirected into a pipe and returns
// what it printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	printed := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	f()
	w.Close()
	return string(<-printed)
}
