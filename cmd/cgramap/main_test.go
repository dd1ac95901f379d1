package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cgramap/internal/mapper"
	"cgramap/internal/service"
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

func TestLoadArch(t *testing.T) {
	a, err := loadArch("", 2, 2, 1, false, false)
	if err != nil || a.Name != "homo-orth-c1-2x2" {
		t.Fatalf("grid: %v %v", a, err)
	}
	// Round-trip through a file.
	dir := t.TempDir()
	path := filepath.Join(dir, "a.xml")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteXML(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	a2, err := loadArch(path, 0, 0, 0, false, false)
	if err != nil || a2.Name != a.Name {
		t.Errorf("xml: %v", err)
	}
}

func TestRunLPExport(t *testing.T) {
	dir := t.TempDir()
	lp := filepath.Join(dir, "m.lp")
	code, err := run(runOpts{benchName: "2x2-f", rows: 4, cols: 4, contexts: 1, diagonal: true,
		objective: "feasibility", engine: "cdcl", timeout: time.Minute, lpOut: lp, quiet: true})
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
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	code, runErr := run(runOpts{benchName: "2x2-f", rows: 4, cols: 4, contexts: 1, diagonal: true,
		objective: "feasibility", engine: "cdcl", timeout: time.Minute, lpOut: "/dev/full", quiet: true})
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitError || runErr == nil {
		t.Errorf("exit %d, error %v; want exit %d with an error", code, runErr, exitError)
	}
	if strings.Contains(string(out), "wrote") {
		t.Errorf("failed export reported as written:\n%s", out)
	}
}

func TestRunSolveSmall(t *testing.T) {
	code, err := run(runOpts{benchName: "2x2-f", rows: 4, cols: 4, contexts: 2, diagonal: true,
		objective: "feasibility", engine: "cdcl", timeout: 2 * time.Minute,
		quiet: true, showCfg: true, validate: true, floorplan: true})
	if err != nil || code != exitOK {
		t.Fatal(code, err)
	}
	// Bad flag values.
	if code, err := run(runOpts{benchName: "2x2-f", rows: 4, cols: 4, contexts: 1,
		objective: "zorp", engine: "cdcl", timeout: time.Minute, quiet: true}); err == nil || code != exitError {
		t.Error("bad objective accepted")
	}
	if code, err := run(runOpts{benchName: "2x2-f", rows: 4, cols: 4, contexts: 1,
		objective: "feasibility", engine: "zorp", timeout: time.Minute, quiet: true}); err == nil || code != exitError {
		t.Error("bad engine accepted")
	}
	if code, err := run(runOpts{benchName: "2x2-f", rows: 4, cols: 4, contexts: 1, knobs: mapper.Flags{Workers: -1},
		objective: "feasibility", engine: "cdcl", timeout: time.Minute, quiet: true}); err == nil || code != exitError {
		t.Error("negative -workers accepted")
	}
}

// TestRunAnnealRejectsAutoII: a heuristic cannot prove an II minimal, so
// -anneal with -auto-ii is a usage error, not an annealing run at the
// -contexts count.
func TestRunAnnealRejectsAutoII(t *testing.T) {
	code, err := run(runOpts{benchName: "2x2-f", rows: 2, cols: 2, contexts: 2, diagonal: true, useSA: true, autoII: 4,
		objective: "feasibility", engine: "cdcl", timeout: time.Minute, quiet: true})
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
	code, runErr := run(runOpts{benchName: "2x2-f", rows: 2, cols: 2, contexts: 2, diagonal: true, useSA: true,
		knobs: mapper.Flags{Seed: 5}, objective: "feasibility", engine: "cdcl", timeout: time.Minute,
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

// TestRunPortfolioRemoved: the removed portfolio engine is a usage error
// whose message names the replacements.
func TestRunPortfolioRemoved(t *testing.T) {
	code, err := run(runOpts{benchName: "2x2-f", rows: 2, cols: 2, contexts: 2, diagonal: true,
		objective: "feasibility", engine: "portfolio", timeout: time.Minute, quiet: true})
	if code != exitError || !errors.Is(err, service.ErrPortfolioRemoved) {
		t.Errorf("-engine portfolio: code %d, err %v; want exit %d with %v", code, err, exitError, service.ErrPortfolioRemoved)
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
	code, err := run(runOpts{dfgFile: path, rows: 2, cols: 2, contexts: 1, diagonal: true,
		objective: "feasibility", engine: "cdcl", timeout: time.Minute, quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	if code != exitInfeasible {
		t.Errorf("exit code %d for a proven-infeasible instance, want %d", code, exitInfeasible)
	}
}

// TestRunExitUnknown: an expired deadline leaves the instance undecided,
// which must surface as exit status 3, not as infeasibility.
func TestRunExitUnknown(t *testing.T) {
	code, err := run(runOpts{benchName: "mac", rows: 4, cols: 4, contexts: 2, diagonal: true,
		objective: "feasibility", engine: "cdcl", timeout: time.Nanosecond, quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	if code != exitUnknown {
		t.Errorf("exit code %d for a timed-out solve, want %d", code, exitUnknown)
	}
}
